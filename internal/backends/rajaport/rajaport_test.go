package rajaport

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/backendtest"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/raja"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

func TestConformanceSeq(t *testing.T) {
	backendtest.Conformance(t, func() driver.Kernels { return New(raja.NewOmp(1)) })
}

func TestConformanceOmp(t *testing.T) {
	backendtest.Conformance(t, func() driver.Kernels { return New(raja.NewOmp(4)) })
}

func TestConformanceCuda(t *testing.T) {
	backendtest.Conformance(t, func() driver.Kernels { return New(raja.NewCuda(2, simgpu.Dim2{X: 32, Y: 2})) })
}

func TestFusionEquivalenceOmp(t *testing.T) {
	backendtest.FusionEquivalence(t, func() driver.Kernels { return New(raja.NewOmp(4)) })
}

func TestFusionEquivalenceCuda(t *testing.T) {
	backendtest.FusionEquivalence(t, func() driver.Kernels { return New(raja.NewCuda(2, simgpu.Dim2{X: 32, Y: 2})) })
}
