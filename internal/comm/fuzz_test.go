package comm

import (
	"strings"
	"testing"
)

// FuzzParseSpec drives the fault-spec parser with arbitrary input, mirroring
// config.FuzzParseReader: the parser consumes untrusted CLI bytes, so it must
// never panic, every schedule it accepts must be well-formed (actions known,
// bits in 0..63, probabilities in [0,1], every rule armed by op or prob).
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"kill:rank=1,op=40",
		"corrupt:rank=0,op=25;drop:prob=0.01,seed=7",
		"flip:rank=1,op=30,bit=12",
		"flip:op=7,idx=3,sticky=1",
		"delay:prob=0.5,seed=-3;stall:rank=2,op=9,tag=4",
		"flip:op=1,bit=63,sticky=true",
		"drop:tag=0,op=1",
		";;;",
		"flip:bit=52",
		"flip:op=0",
		"nan:op=2",
		"flip:op=1,bit=64",
		"kill:op=1,sticky=1",
		"flip:op=1,prob=2",
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, input string) {
		s, err := ParseSpec(input)
		if err != nil {
			return
		}
		if len(s.Rules) == 0 {
			t.Fatalf("accepted spec produced no rules:\n%s", input)
		}
		for i, r := range s.Rules {
			if r.Action < ActDrop || r.Action > ActFlip {
				t.Fatalf("rule %d has unknown action %v:\n%s", i, r.Action, input)
			}
			if strings.HasPrefix(r.Action.String(), "Action(") {
				t.Fatalf("rule %d action %d has no name:\n%s", i, int(r.Action), input)
			}
			if r.Bit < 0 || r.Bit > 63 {
				t.Fatalf("rule %d bit %d out of range:\n%s", i, r.Bit, input)
			}
			if r.Prob < 0 || r.Prob > 1 {
				t.Fatalf("rule %d prob %v out of range:\n%s", i, r.Prob, input)
			}
			if r.Op <= 0 && r.Prob <= 0 {
				t.Fatalf("rule %d is unarmed (no op, no prob):\n%s", i, input)
			}
			if r.Idx < 0 {
				t.Fatalf("rule %d idx %d negative:\n%s", i, r.Idx, input)
			}
		}
	})
}
