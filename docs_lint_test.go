// TestDocsLint keeps the operator documentation and the code from
// drifting apart, in both directions:
//
//   - every metric name a doc mentions must still be registered somewhere
//     in the Go sources (no ghost metrics in runbooks);
//   - every metric the serving plane registers must be documented;
//   - every teaserve flag must appear in docs/OPERATIONS.md's flag
//     reference;
//   - every internal/… path README.md, DESIGN.md or docs/*.md names must
//     exist (no prose about packages that were deleted or renamed).
//
// It is pure text analysis — no server is started — so it runs in the CI
// docs-lint step in milliseconds.
package tealeaf_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// lintDocs are the operator-facing documents whose metric and flag
// references the lint cross-checks.
var lintDocs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	filepath.Join("docs", "OPERATIONS.md"),
	filepath.Join("docs", "PORTABILITY.md"),
}

var metricToken = regexp.MustCompile(`\b(?:teaserve|tealeaf)_[a-z][a-z0-9_]*`)

// goSourceTokens walks every non-test .go file and collects the metric
// tokens appearing in it (series literals include label sets, so tokens
// are matched on raw text, not parsed strings).
func goSourceTokens(t *testing.T) map[string]bool {
	t.Helper()
	tokens := map[string]bool{}
	err := filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if name := info.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, tok := range metricToken.FindAllString(string(buf), -1) {
			tokens[tok] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tokens
}

// baseMetric strips the exposition suffixes a doc may quote for a
// histogram series.
func baseMetric(tok string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if s, ok := strings.CutSuffix(tok, suffix); ok {
			return s
		}
	}
	return tok
}

func TestDocsLintMetricsExist(t *testing.T) {
	code := goSourceTokens(t)
	for _, doc := range lintDocs {
		buf, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("doc %s unreadable: %v", doc, err)
			continue
		}
		for _, tok := range metricToken.FindAllString(string(buf), -1) {
			if !code[tok] && !code[baseMetric(tok)] {
				t.Errorf("%s mentions metric %q, which no Go source registers", doc, tok)
			}
		}
	}
}

func TestDocsLintMetricsDocumented(t *testing.T) {
	var docs strings.Builder
	for _, doc := range lintDocs {
		buf, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("doc %s unreadable: %v", doc, err)
		}
		docs.Write(buf)
		docs.WriteByte('\n')
	}
	docText := docs.String()
	// Registered series live in string literals like
	// `teaserve_x_total` or `teaserve_x_total{label="v"}`; take the base
	// name before any label set.
	literal := regexp.MustCompile("[\"`]((?:teaserve|tealeaf)_[a-z][a-z0-9_]*)[{\"`]")
	err := filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if name := info.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range literal.FindAllStringSubmatch(string(buf), -1) {
			if name := m[1]; !strings.Contains(docText, name) {
				t.Errorf("%s registers metric %q, which no operator doc mentions", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDocsLintFlagsDocumented(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("cmd", "teaserve", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := os.ReadFile(filepath.Join("docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	flagDef := regexp.MustCompile(`flag\.(?:String|Int|Bool|Duration)\("([a-z][a-z0-9-]*)"`)
	for _, m := range flagDef.FindAllStringSubmatch(string(buf), -1) {
		if name := m[1]; !strings.Contains(string(ops), "-"+name) {
			t.Errorf("teaserve flag -%s is not documented in docs/OPERATIONS.md", name)
		}
	}
}

// internalPath matches an internal/… path as the docs write it, brace lists
// and * included; expandBraces turns one into the paths it names.
var internalPath = regexp.MustCompile(`internal/[A-Za-z0-9_./{},*-]*`)

// expandBraces expands the first {a,b,…} list in p, recursively.
func expandBraces(p string) []string {
	open := strings.Index(p, "{")
	if open < 0 {
		return []string{p}
	}
	end := strings.Index(p[open:], "}")
	if end < 0 {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[open+1:open+end], ",") {
		out = append(out, expandBraces(p[:open]+alt+p[open+end+1:])...)
	}
	return out
}

func TestDocsLintInternalPathsExist(t *testing.T) {
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"README.md", "DESIGN.md"}, docs...) {
		buf, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("doc %s unreadable: %v", doc, err)
		}
		for _, tok := range internalPath.FindAllString(string(buf), -1) {
			for _, p := range expandBraces(strings.TrimRight(tok, ".,")) {
				p = strings.TrimSuffix(strings.TrimSuffix(p, "..."), "/")
				if matches, _ := filepath.Glob(p); len(matches) == 0 {
					t.Errorf("%s names %s, which does not exist", doc, p)
				}
			}
		}
	}
}
