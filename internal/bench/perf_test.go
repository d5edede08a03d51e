package bench

import (
	"testing"

	"spongefiles/internal/media"
	"spongefiles/internal/sponge"
)

// macroAllocCeiling caps allocations per Median job run at the guard's
// configuration below (4 GB nodes, sponge spilling, size 0.02, 4
// workers). The pooled hot path — typed event heap, process reuse,
// recycled chunk buffers, O(1) pool free list — measures about 1,006
// allocs/op there; the boxed-event, fresh-buffer machinery it replaced
// measured 19,946 (BENCH_macro.json records the full comparison). The
// ceiling leaves ~30% headroom over the pooled figure and sits an order
// of magnitude below the old implementation.
const macroAllocCeiling = 1300

// TestMacroAllocRegressionGuard is the macro hot path's allocation
// gate: one Median job run must stay under macroAllocCeiling allocs/op.
func TestMacroAllocRegressionGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard; skipped in -short mode")
	}
	mc := MacroConfig{NodeMemory: 4 * media.GB, Sponge: true, SizeFactor: 0.02, Workers: 4}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			RunMacro(Median, mc)
		}
	})
	got := r.AllocsPerOp()
	if got > macroAllocCeiling {
		t.Fatalf("median job allocs/op = %d, want <= %d", got, macroAllocCeiling)
	}
	t.Logf("median job allocs/op = %d (ceiling %d)", got, macroAllocCeiling)
}

// Benchmarks for `go test -bench Macro -benchmem`: one per paper job.
func benchMacro(b *testing.B, kind JobKind) {
	b.ReportAllocs()
	mc := MacroConfig{NodeMemory: 4 * media.GB, Sponge: true, SizeFactor: 0.05, Workers: 8}
	for i := 0; i < b.N; i++ {
		RunMacro(kind, mc)
	}
}

func BenchmarkMacroMedian(b *testing.B)        { benchMacro(b, Median) }
func BenchmarkMacroAnchortext(b *testing.B)    { benchMacro(b, Anchortext) }
func BenchmarkMacroSpamQuantiles(b *testing.B) { benchMacro(b, SpamQuantiles) }

// TestRunMacroClosesSpongePools checks that a run unmaps its sponge
// pools on return: benchtab and the bench tests call RunMacro many times
// in one process, and an open pool keeps its touched pages resident.
func TestRunMacroClosesSpongePools(t *testing.T) {
	var svcs []*sponge.Service
	macroStarted = func(svc *sponge.Service) { svcs = append(svcs, svc) }
	defer func() { macroStarted = nil }()
	mc := MacroConfig{NodeMemory: 4 * media.GB, Sponge: true, SizeFactor: 0.02, Workers: 4}
	RunMacro(Median, mc)
	RunMacro(SpamQuantiles, mc)
	if len(svcs) != 2 {
		t.Fatalf("saw %d services, want 2", len(svcs))
	}
	for i, svc := range svcs {
		for n, srv := range svc.Servers {
			if !srv.Pool().Closed() {
				t.Errorf("run %d: node %d's pool still open after RunMacro returned", i, n)
			}
		}
	}
}
