package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"spongefiles/internal/bench"
)

// TestMain lets the test binary stand in for perfbench as its own child:
// the wire workloads spawn `serve` daemons and the simulated workloads
// spawn `job` processes from os.Executable().
func TestMain(m *testing.M) {
	if subcommand(os.Args) {
		return
	}
	os.Exit(m.Run())
}

// tinyScale shrinks the simulated datasets to a few seconds of work.
const tinyScale = 0.02

func tinyOpts(t *testing.T, workload string, traced bool) runOpts {
	return runOpts{workload: workload, seed: 7, traced: traced, outDir: t.TempDir(), scale: tinyScale}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadList(); got != fmt.Sprint(names) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %s", names, got)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: BENCHMARK.json lists %d metrics, benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %s %s, benchmark %v", i, m.Name, m.Unit, endToEnd[i])
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: BENCHMARK.json lists %d metrics, benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d]: BENCHMARK.json %s %s, benchmark %v", i, m.Name, m.Unit, perLayer[i])
		}
	}
}

// runAndReport runs one workload, renders its report, and returns the
// metrics of the parsed last line.
func runAndReport(t *testing.T, o runOpts) map[string]struct {
	Value float64
	Unit  string
} {
	t.Helper()
	res, err := workloads[o.workload](o)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	var out bytes.Buffer
	if err := report(&out, o, res); err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line %q: %v", o.workload, lines[len(lines)-1], err)
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", o.workload, last.Correct, last.Attempted, last.Failed)
	}
	return last.Metrics
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at a tiny scale,
// untraced and traced, and checks every catalogued metric is reported
// with its unit; end-to-end figures must also be positive.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			o := tinyOpts(t, name, traced)
			got := runAndReport(t, o)
			cat := endToEnd
			if traced {
				cat = perLayer
			}
			if len(got) != len(cat) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(got), len(cat))
			}
			for _, m := range cat {
				v, ok := got[m.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", name, traced, m.name)
				case v.Unit != m.unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", name, traced, m.name, v.Unit, m.unit)
				case !traced && !(v.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m.name, v.Value)
				}
			}
			if !traced {
				checkIndependent(t, name, got)
			}
		}
	}
}

// checkIndependent guards against an end-to-end metric computed from
// others: no two are equal, and none is the product or quotient of two
// others.
func checkIndependent(t *testing.T, workload string, got map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	same := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	for _, a := range endToEnd {
		for _, b := range endToEnd {
			if a == b {
				continue
			}
			va, vb := got[a.name].Value, got[b.name].Value
			if same(va, vb) {
				t.Errorf("%s: %s equals %s (%v)", workload, a.name, b.name, va)
			}
			for _, c := range endToEnd {
				if c == a || c == b {
					continue
				}
				vc := got[c.name].Value
				if same(vc, va*vb) || same(vc, va/vb) {
					t.Errorf("%s: %s is derived from %s and %s", workload, c.name, a.name, b.name)
				}
			}
		}
	}
}

// TestCorruptedWireReadIsAFailure flips a byte of the daemon's spill file
// between a round's writes and reads, on both tiers: the byte-for-byte
// check must count the read as failed, and the run must print no result.
func TestCorruptedWireReadIsAFailure(t *testing.T) {
	for _, mode := range []wireMode{wireRemote, wireLocal} {
		dir, err := os.MkdirTemp(".", "corrupt-")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		rig, err := setupWire(mode, dir)
		if err != nil {
			t.Fatal(err)
		}
		readPhaseTestHook = func() {
			files, _ := filepath.Glob(filepath.Join(dir, "sponge-spill-*.dat"))
			if len(files) != 1 {
				t.Errorf("want one spill file, found %v", files)
				return
			}
			f, err := os.OpenFile(files[0], os.O_RDWR, 0)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			b := make([]byte, 1)
			if _, err := f.ReadAt(b, 4096); err != nil {
				t.Error(err)
				return
			}
			b[0] ^= 0xff
			if _, err := f.WriteAt(b, 4096); err != nil {
				t.Error(err)
			}
		}
		st, err := rig.round(0, newPayloads(3), nil)
		readPhaseTestHook = nil
		rig.close()
		if err != nil {
			t.Fatal(err)
		}
		if st.failed != 1 {
			t.Errorf("mode %d: %d failed reads after corrupting one byte, want 1", mode, st.failed)
		}
		var out bytes.Buffer
		if err := report(&out, runOpts{workload: "wire-remote"}, result{attempted: st.ops, failed: st.failed}); err == nil {
			t.Errorf("mode %d: report accepted a run with a failed read", mode)
		}
		if strings.Contains(out.String(), "{") {
			t.Errorf("mode %d: a failed run printed a result: %q", mode, out.String())
		}
	}
}

// TestAssemblyMatchesRunMacro pins that the benchmark times the paper's
// job and not a look-alike: at the default seeds, untraced, its own
// assembly reproduces bench.RunMacro's virtual runtime and output.
func TestAssemblyMatchesRunMacro(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale jobs")
	}
	cases := []struct {
		kind    simKind
		name    string
		job     bench.JobKind
		virtual string
	}{
		{simMedian, "median-sponge", bench.Median, "628.00"},
		{simSpam, "spamq-disk", bench.SpamQuantiles, "259.33"},
	}
	for _, c := range cases {
		sh := c.kind.shape()
		want := bench.RunMacro(c.job, bench.MacroConfig{
			NodeMemory: simNodeMemory, Sponge: sh.sponge, SizeFactor: sh.sizeFactor, Workers: simWorkers,
		})
		got, err := runJob(c.kind, c.name, -1, false, t.TempDir(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got.Virtual != want.Runtime.Seconds() {
			t.Errorf("%s: virtual runtime %v, RunMacro %v", c.name, got.Virtual, want.Runtime.Seconds())
		}
		if s := fmt.Sprintf("%.2f", got.Virtual); s != c.virtual {
			t.Errorf("%s: virtual runtime %s, want %s", c.name, s, c.virtual)
		}
		if got.Median != want.MedianValue {
			t.Errorf("%s: median %v, RunMacro %v", c.name, got.Median, want.MedianValue)
		}
		if len(got.Groups) != len(want.GroupOut) {
			t.Errorf("%s: %d groups, RunMacro %d", c.name, len(got.Groups), len(want.GroupOut))
		}
		for g, ts := range want.GroupOut {
			if len(got.Groups[g]) != len(ts) {
				t.Errorf("%s: group %s has %d tuples, RunMacro %d", c.name, g, len(got.Groups[g]), len(ts))
				continue
			}
			for i, tu := range ts {
				if got.Groups[g][i] != [2]float64{float64(tu.Int(0)), tu.Float(1)} {
					t.Errorf("%s: group %s tuple %d = %v, RunMacro %v", c.name, g, i, got.Groups[g][i], tu)
				}
			}
		}
	}
}

// TestLayersStressedAsClaimed checks, at paper scale, that each workload
// stresses the layers the benchmark claims for it: Pig holds over a fifth
// of spamq-disk's CPU and none of median-sponge's; the sponge allocator
// places chunks on median-sponge only; the daemon serves the spilled
// reads zero-copy over TCP, and the fd-pass tier leaves it nothing to
// serve.
func TestLayersStressedAsClaimed(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale jobs")
	}
	med, err := runJob(simMedian, "median-sponge", -1, true, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	spam, err := runJob(simSpam, "spamq-disk", -1, true, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if share := spam.Layers["cpu.pig_s"] / spam.Layers["cpu.total_s"]; share <= 0.2 {
		t.Errorf("spamq-disk: Pig holds %.2f of CPU, want > 0.2", share)
	}
	if v := med.Layers["cpu.pig_s"]; v != 0 {
		t.Errorf("median-sponge: cpu.pig_s = %v, want 0", v)
	}
	chunks := func(m map[string]float64) float64 {
		return m["sponge.chunks.local_mem"] + m["sponge.chunks.remote_mem"] + m["sponge.chunks.local_disk"] + m["sponge.chunks.remote_fs"]
	}
	if chunks(med.Layers) == 0 || chunks(spam.Layers) != 0 {
		t.Errorf("sponge chunks: median-sponge %v, spamq-disk %v; want > 0 and 0", chunks(med.Layers), chunks(spam.Layers))
	}
	for _, r := range []jobReport{med, spam} {
		if r.Layers["trace.flags"] != 0 {
			t.Errorf("traced job flagged: cpu_sum_ratio %v, unattributed_share %v",
				r.Layers["trace.cpu_sum_ratio"], r.Layers["trace.unattributed_share"])
		}
	}

	remote := runAndReport(t, runOpts{workload: "wire-remote", seed: 1, traced: true, outDir: t.TempDir()})
	local := runAndReport(t, runOpts{workload: "wire-local", seed: 1, traced: true, outDir: t.TempDir()})
	spilledMB := remote["pool.spill_share"].Value * float64(remote["serve.requests.read"].Value) * wireChunk / mb
	if got := remote["serve.zero_copy_mb"].Value; math.Abs(got-spilledMB) > 0.05*spilledMB {
		t.Errorf("wire-remote: %v MB served zero-copy, %v MB of reads were spilled chunks", got, spilledMB)
	}
	if got := local["serve.zero_copy_mb"].Value; got != 0 {
		t.Errorf("wire-local: %v MB served zero-copy, want 0", got)
	}
}

// TestAttributeTraces reads a known `go tool pprof -traces` listing: each
// sample goes to the innermost repository layer on its stack, GC stacks
// to cpu.gc_s wherever the GC frame sits, and the sample values in their
// pprof units add up to cpu.total_s.
func TestAttributeTraces(t *testing.T) {
	const text = `File: perfbench
Type: cpu
Duration: 2.50s, Total samples = 1.36s (54.40%)
-----------+-------------------------------------------------------
     1.20s   spongefiles/internal/pig.DecodeTuple
             spongefiles/internal/mapreduce.(*mapTask).run
             runtime.goexit
-----------+-------------------------------------------------------
     100ms   bytes.Equal
             main.(*wireRig).round.func3
             runtime.goexit
-----------+-------------------------------------------------------
      40ms   runtime.scanobject
             runtime.gcDrain
             spongefiles/internal/mapreduce.(*Engine).Submit
-----------+-------------------------------------------------------
      20ms   runtime.futex
             runtime.mcall
-----------+-------------------------------------------------------
`
	got, err := attributeTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cpu.pig_s": 1.2, "cpu.bench_s": 0.1, "cpu.gc_s": 0.04, "cpu.sched_s": 0.02,
		"cpu.mapreduce_s": 0, "cpu.total_s": 1.36,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := attributeTraces("not a pprof listing"); err == nil {
		t.Error("a listing with no samples was accepted")
	}
}
