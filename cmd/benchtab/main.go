// Benchtab regenerates the paper's tables and figures on the simulated
// cluster and prints them in the paper's layout.
//
// Usage:
//
//	benchtab [-size f] [-spills n] [tab1|tab2|fig1a|fig1b|fig4|fig5|fig6|grepvar|failtab|ablate|all]
//	benchtab [-out file.json] [-stats file.json] faults
//	benchtab [-out file.json] [-stats file.json] readahead
//	benchtab [-out BENCH_wire.json] tier
//	benchtab [-out BENCH_tracker.json] tracker
//	benchtab [-out BENCH_combine.json] combine
//
// -size scales the macro datasets (1.0 = the paper's 10 GB inputs).
//
// -stats threads one obs metrics registry through every cell of the
// faults or readahead experiment and writes its aggregated snapshot
// (spill outcomes, retries, fault injections, readahead hits) as JSON
// alongside the BENCH report.
//
// The faults experiment sweeps transport drop rates over the simulated
// and the real-TCP wire transports, recording spill placement, retries,
// and timing (checked in as BENCH_faults.json). It is not part of "all".
//
// The readahead experiment sweeps the readahead window depth against
// injected per-exchange latency over both transports, measuring
// read-back throughput of a fully remote file (checked in as
// BENCH_readahead.json). Also not part of "all".
//
// The tier experiment measures the local transport tier ladder —
// steady-state 64KiB chunk reads over loopback TCP, unix sockets,
// sendfile spill serves, and the fd-passing pread fast paths (spill
// file and memfd pool segments) — and patches the measured rungs into
// the tier_ladder section of an existing BENCH_wire.json given via
// -out, leaving the protocol-benchmark sections untouched. Also not
// part of "all".
//
// The tracker experiment sweeps simulated cluster size under the
// paper's full-poll free-space dissemination and under delta
// dissemination, with identical churn, recording tracker messages per
// node per second (checked in as BENCH_tracker.json). Also not part of
// "all".
//
// The combine experiment sweeps combining scope (none, per-task,
// per-node, per-node with sponge-backed overflow) against key skew
// over a wordcount and an algebraic Pig query, recording shuffle
// volume, spill traffic, and runtime (checked in as
// BENCH_combine.json). Also not part of "all".
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"spongefiles/internal/bench"
	"spongefiles/internal/media"
	"spongefiles/internal/obs"
)

func main() {
	size := flag.Float64("size", 1.0, "dataset scale factor (1.0 = paper size)")
	spills := flag.Int("spills", 10000, "microbenchmark spill count")
	out := flag.String("out", "", "write the experiment's JSON report to this file (faults, readahead, tier, tracker, combine)")
	statsOut := flag.String("stats", "", "write the experiment's metrics registry snapshot (JSON) to this file (faults, readahead)")
	flag.Parse()
	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	if which == "faults" {
		faults(*out, *statsOut)
		return
	}
	if which == "readahead" {
		readahead(*out, *statsOut)
		return
	}
	if which == "tier" {
		tier(*out)
		return
	}
	if which == "tracker" {
		tracker(*out)
		return
	}
	if which == "combine" {
		combine(*out)
		return
	}
	run := func(name string, fn func()) {
		if which == "all" || which == name {
			fn()
		}
	}
	run("tab1", func() { table1(*spills) })
	run("fig1a", fig1a)
	run("fig1b", fig1b)
	run("tab2", func() { table2(*size) })
	run("fig4", func() { figMacro("Figure 4 (no contention)", bench.Fig4(*size)) })
	run("fig5", func() { figMacro("Figure 5 (disk contention)", bench.Fig5(*size)) })
	run("fig6", func() { fig6(*size) })
	run("grepvar", func() { grepvar(*size) })
	run("failtab", failtab)
	run("effective", effective)
	run("ablate", ablate)
	switch which {
	case "all", "tab1", "fig1a", "fig1b", "tab2", "fig4", "fig5", "fig6", "grepvar", "failtab", "effective", "ablate":
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		os.Exit(2)
	}
}

func faults(out, statsOut string) {
	cfg := bench.DefaultFaults()
	if statsOut != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	fmt.Printf("== Fault injection: spill placement vs exchange drop rate (%d workers, %d files x %d chunks, seed %d) ==\n",
		cfg.Workers, cfg.Files, cfg.FileChunks, cfg.Seed)
	cells := bench.RunFaults(cfg)
	fmt.Println(bench.FormatTable(bench.FaultsHeader, bench.FaultsRows(cells)))
	if out != "" {
		if err := os.WriteFile(out, bench.FaultsJSON(cfg, cells), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", out, err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", out)
	}
	dumpStats(cfg.Metrics, statsOut)
}

func readahead(out, statsOut string) {
	cfg := bench.DefaultReadAhead()
	if statsOut != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	fmt.Printf("== Readahead window: depth x injected exchange delay (%d workers, %d-chunk file, seed %d) ==\n",
		cfg.Workers, cfg.FileChunks, cfg.Seed)
	cells := bench.RunReadAhead(cfg)
	fmt.Println(bench.FormatTable(bench.ReadAheadHeader, bench.ReadAheadRows(cells)))
	if out != "" {
		if err := os.WriteFile(out, bench.ReadAheadJSON(cfg, cells), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", out, err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", out)
	}
	dumpStats(cfg.Metrics, statsOut)
}

func tier(out string) {
	fmt.Println("== Local transport tier ladder: steady-state 64KiB ReadInto ==")
	rungs, err := bench.RunTierLadder(2 * time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tier ladder: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(bench.FormatTable(bench.TierHeader, bench.TierRows(rungs)))
	if out != "" {
		if err := bench.PatchWireTierLadder(out, rungs); err != nil {
			fmt.Fprintf(os.Stderr, "patch %s: %v\n", out, err)
			os.Exit(1)
		}
		fmt.Printf("tier ladder patched into %s\n", out)
	}
}

func tracker(out string) {
	cfg := bench.DefaultTracker()
	fmt.Printf("== Tracker dissemination at scale: full poll vs delta (%d s, %d churn ops/s) ==\n",
		cfg.Seconds, cfg.ChurnPerSec)
	cells := bench.RunTracker(cfg)
	fmt.Println(bench.FormatTable(bench.TrackerHeader, bench.TrackerRows(cells)))
	if out != "" {
		if err := os.WriteFile(out, bench.TrackerJSON(cfg, cells), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", out, err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", out)
	}
}

func combine(out string) {
	cfg := bench.DefaultCombine()
	fmt.Printf("== Combine scope: task vs node combining x skew (%d workers, %d records, vocab %d, zipf s=%.1f) ==\n",
		cfg.Workers, cfg.Records, cfg.Vocab, cfg.ZipfS)
	cells := bench.RunCombine(cfg)
	fmt.Println(bench.FormatTable(bench.CombineHeader, bench.CombineRows(cells)))
	if out != "" {
		if err := os.WriteFile(out, bench.CombineJSON(cfg, cells), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", out, err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", out)
	}
}

// dumpStats writes the sweep's aggregated registry snapshot as JSON.
func dumpStats(reg *obs.Registry, path string) {
	if reg == nil || path == "" {
		return
	}
	snap, err := obs.SnapshotJSON(reg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snapshot: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("metrics snapshot written to %s\n", path)
}

func table1(spills int) {
	fmt.Printf("== Table 1: spilling cost of a 1 MB buffer (%d spills) ==\n", spills)
	fmt.Println("   paper: 1 / 7 / 9 / 25 / 174 / 499 ms")
	rows := bench.Table1(spills)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Medium, fmt.Sprintf("%.1f", r.AvgMs)})
	}
	fmt.Println(bench.FormatTable([]string{"spill medium", "time (ms)"}, out))
}

func fig1a() {
	fmt.Println("== Figure 1(a): CDF of reduce-task input sizes ==")
	res := bench.Fig1(nil)
	var out [][]string
	for i := range res.AllTasks {
		out = append(out, []string{
			fmt.Sprintf("%.4f", res.AllTasks[i].Fraction),
			bench.HumanBytes(res.AllTasks[i].Value),
			bench.HumanBytes(res.JobAverages[i].Value),
		})
	}
	fmt.Println(bench.FormatTable([]string{"fraction", "all tasks", "per-job avg"}, out))
	fmt.Println(bench.ASCIICDF("all reduce-task inputs", res.AllTasks, 60))
	fmt.Println(bench.ASCIICDF("per-job average inputs", res.JobAverages, 60))
}

func fig1b() {
	fmt.Println("== Figure 1(b): CDF of per-job skewness of reduce input sizes ==")
	res := bench.Fig1(nil)
	var out [][]string
	for _, p := range res.Skewness {
		out = append(out, []string{fmt.Sprintf("%.4f", p.Fraction), fmt.Sprintf("%.2f", p.Value)})
	}
	fmt.Println(bench.FormatTable([]string{"fraction", "skewness"}, out))
	fmt.Printf("fraction of jobs with |skewness| > 1: %.0f%%\n\n", res.HighlySkewedFraction*100)
}

func table2(size float64) {
	fmt.Printf("== Table 2: straggling reduce statistics (size factor %.2f) ==\n", size)
	fmt.Println("   paper: median 10/10.3GB/10527; anchortext 2.5/7.2GB/7383; spam 3/10.2GB/10478")
	rows := bench.Table2(size)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Kind.String(),
			fmt.Sprintf("%.2f GB", r.InputGB),
			fmt.Sprintf("%.2f GB", r.SpilledGB),
			strconv.FormatInt(r.SpilledChunks, 10),
			fmt.Sprintf("%.2f%%", r.Fragmentation*100),
		})
	}
	fmt.Println(bench.FormatTable(
		[]string{"job", "input bytes", "spilled bytes", "spilled chunks", "fragmentation"}, out))
}

func figMacro(title string, cells []bench.MacroCell) {
	fmt.Printf("== %s: job runtimes ==\n", title)
	var out [][]string
	for _, c := range cells {
		out = append(out, []string{c.Label, fmt.Sprintf("%.0f s", c.Seconds)})
	}
	fmt.Println(bench.FormatTable([]string{"configuration", "runtime"}, out))
}

func fig6(size float64) {
	fmt.Println("== Figure 6: memory configurations (no contention) ==")
	cells := bench.Fig6(size)
	var out [][]string
	for _, c := range cells {
		spilled := float64(c.Result.StragglerSpilled) / float64(media.GB)
		out = append(out, []string{
			c.Kind.String(), c.Config,
			fmt.Sprintf("%.0f s", c.Seconds),
			fmt.Sprintf("%.2f GB", spilled),
		})
	}
	fmt.Println(bench.FormatTable([]string{"job", "config", "runtime", "straggler spilled"}, out))
}

func grepvar(size float64) {
	fmt.Println("== §4.2.3: effect of disk spilling on background grep tasks ==")
	fmt.Println("   paper: most ~16 s, unlucky ones up to ~39 s under disk spilling")
	res := bench.GrepVariance(size)
	dm, dx := bench.MedianMax(res.DiskSecs)
	sm, sx := bench.MedianMax(res.SpongeSecs)
	out := [][]string{
		{"disk spilling", fmt.Sprintf("%d", len(res.DiskSecs)), fmt.Sprintf("%.1f s", dm), fmt.Sprintf("%.1f s", dx)},
		{"sponge spilling", fmt.Sprintf("%d", len(res.SpongeSecs)), fmt.Sprintf("%.1f s", sm), fmt.Sprintf("%.1f s", sx)},
	}
	fmt.Println(bench.FormatTable([]string{"foreground spill mode", "grep tasks", "median", "max"}, out))
}

func ablate() {
	fmt.Println("== Ablation: in-memory chunk size (§3.2 picks 1 MB) ==")
	var out [][]string
	for _, r := range bench.ChunkSizeAblation(nil, 100) {
		out = append(out, []string{
			bench.HumanBytes(float64(r.ChunkVirtual)),
			fmt.Sprintf("%.1f ms/MB", r.RemoteSpillMs),
			fmt.Sprintf("%.2f%%", r.Fragmentation*100),
		})
	}
	fmt.Println(bench.FormatTable([]string{"chunk size", "remote spill cost", "fragmentation (10.25MB spill)"}, out))

	fmt.Println("== Ablation: tracker poll interval (§3.1.1 picks 1 s) ==")
	out = nil
	for _, r := range bench.StalenessAblation(nil) {
		out = append(out, []string{
			r.PollInterval.String(),
			fmt.Sprintf("%d", r.RemoteFailures),
			fmt.Sprintf("%d", r.DiskChunks),
		})
	}
	fmt.Println(bench.FormatTable([]string{"poll interval", "stale-entry failures", "disk-fallback chunks"}, out))

	fmt.Println("== Ablation: server affinity (failure surface, §4.3) ==")
	out = nil
	for _, r := range bench.AffinityAblation() {
		out = append(out, []string{
			fmt.Sprintf("%v", r.Affinity),
			fmt.Sprintf("%d", r.MachinesUsed),
			fmt.Sprintf("%.6f%%", r.FailureProb*100),
		})
	}
	fmt.Println(bench.FormatTable([]string{"affinity", "machines holding data", "P(task failure)"}, out))

	fmt.Println("== Ablation: rack-local spilling vs oversubscribed uplinks (§3.1.1) ==")
	out = nil
	for _, r := range bench.RackLocalityAblation() {
		out = append(out, []string{
			fmt.Sprintf("%v", r.RackLocalOnly),
			fmt.Sprintf("%.0f ms", r.SpillMs),
			fmt.Sprintf("%d", r.DiskChunks),
			bench.HumanBytes(float64(r.CrossRackBytes)),
		})
	}
	fmt.Println(bench.FormatTable([]string{"rack-local only", "32MB spill", "disk-fallback chunks", "uplink bytes"}, out))

	fmt.Println("== Ablation: async writes + prefetch (§3.1.2) ==")
	out = nil
	for _, r := range bench.OverlapAblation() {
		out = append(out, []string{
			fmt.Sprintf("%v", r.Prefetch),
			fmt.Sprintf("%d", r.AsyncDepth),
			fmt.Sprintf("%.1f ms", r.WriteMs),
			fmt.Sprintf("%.1f ms", r.ReadMs),
		})
	}
	fmt.Println(bench.FormatTable([]string{"overlap on", "async depth", "32-chunk write", "32-chunk read"}, out))
}

func effective() {
	fmt.Println("== §4.3 Effectiveness: aggregate intermediate data vs cluster memory ==")
	fmt.Println("   paper: at most ~25% of total cluster memory at any point in time")
	res := bench.Effectiveness(bench.DefaultEffectiveness())
	out := [][]string{
		{"cluster memory", bench.HumanBytes(res.ClusterMemory)},
		{"median fraction", fmt.Sprintf("%.2f%%", res.MedianFraction*100)},
		{"p99 fraction", fmt.Sprintf("%.2f%%", res.P99Fraction*100)},
		{"peak fraction", fmt.Sprintf("%.2f%%", res.PeakFraction*100)},
	}
	fmt.Println(bench.FormatTable([]string{"metric", "value"}, out))
}

func failtab() {
	fmt.Println("== §4.3: task failure probability, MTTF 100 months, t = 120 min ==")
	var out [][]string
	for _, r := range bench.FailureTable() {
		out = append(out, []string{strconv.Itoa(r.Machines), fmt.Sprintf("%.6f%%", r.Probability*100)})
	}
	fmt.Println(bench.FormatTable([]string{"machines holding data", "P(task failure)"}, out))
}
