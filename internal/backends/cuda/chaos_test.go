package cuda

import (
	"testing"

	"github.com/warwick-hpsc/tealeaf-go/internal/backends/backendtest"
	"github.com/warwick-hpsc/tealeaf-go/internal/driver"
	"github.com/warwick-hpsc/tealeaf-go/internal/simgpu"
)

func TestChaosConformance(t *testing.T) {
	backendtest.ChaosConformance(t, func() driver.Kernels { return New(2, simgpu.Dim2{X: 16, Y: 4}) })
}
