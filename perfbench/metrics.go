package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric names one reported figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the figures an untraced run prints. Every workload
// reports every one of them (BENCHMARK.json lists the same names), and
// each is a host measurement of its own:
//
//   - wall_s: host seconds per operation — one simulated job from submit
//     to simulation end, or one wire round (write, read and free of every
//     chunk).
//   - cpu_s: host CPU seconds (user and system) per operation — the job
//     process over the job, or the client plus the daemon over the round.
//   - setup_s: assembly before the measured work (cluster, service, corpus
//     and job; or daemon spawn, dial and fd-pass arming).
//   - peak_rss_mb: peak resident memory of the system under test.
//
// The simulated runtime (virtual_s) and the wire throughputs (write_mb_s,
// read_mb_s) are printed beside them and reported per layer: the first is
// deterministic and the others exist on one face only.
var endToEnd = []metric{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the figures a traced run prints, for every workload; a
// layer a workload does not exercise reports 0.
var perLayer = []metric{
	{"error_rate", "ratio"},
	{"job.virtual_s", "s"},

	{"workload.records", "count"},
	{"workload.gen_s", "s"},

	{"pig.map_s", "s"},
	{"pig.bag_spills", "count"},
	{"pig.udf_virtual_s", "s"},

	{"mapreduce.emit_s", "s"},
	{"mapreduce.map_virtual_s", "s"},
	{"mapreduce.reduce_virtual_s", "s"},
	{"mapreduce.straggler_virtual_s", "s"},
	{"mapreduce.straggler_input_mb", "MB"},
	{"mapreduce.spill_events", "count"},
	{"mapreduce.merge_rounds", "count"},
	{"mapreduce.failed_attempts", "count"},

	{"spill.files", "count"},
	{"spill.write_mb", "MB"},
	{"spill.read_mb", "MB"},
	{"spill.write_virtual_s", "s"},
	{"spill.read_virtual_s", "s"},

	{"sponge.chunks.local_mem", "count"},
	{"sponge.chunks.remote_mem", "count"},
	{"sponge.chunks.local_disk", "count"},
	{"sponge.chunks.remote_fs", "count"},
	{"sponge.fallbacks", "count"},
	{"sponge.retries", "count"},
	{"sponge.tracker_queries", "count"},
	{"sponge.ra_hits", "count"},

	{"media.disk_write_mb", "MB"},
	{"media.disk_read_mb", "MB"},
	{"media.seeks", "count"},
	{"media.cache_hit_mb", "MB"},
	{"media.throttle_virtual_s", "s"},
	{"media.disk_busy_virtual_s", "s"},

	{"simtime.procs_spawned", "count"},
	{"simtime.procs_reused", "count"},

	{"cpu.workload_s", "s"},
	{"cpu.pig_s", "s"},
	{"cpu.mapreduce_s", "s"},
	{"cpu.spill_s", "s"},
	{"cpu.sponge_s", "s"},
	{"cpu.wire_s", "s"},
	{"cpu.media_s", "s"},
	{"cpu.simtime_s", "s"},
	{"cpu.sched_s", "s"},
	{"cpu.gc_s", "s"},
	{"cpu.trace_s", "s"},
	{"cpu.bench_s", "s"},
	{"cpu.other_s", "s"},
	{"cpu.total_s", "s"},

	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs", "count"},
	{"runtime.gc_cycles", "count"},

	{"wire.write.pool.p50_us", "us"},
	{"wire.write.pool.p99_us", "us"},
	{"wire.write.spill.p50_us", "us"},
	{"wire.write.spill.p99_us", "us"},
	{"wire.read.pool.p50_us", "us"},
	{"wire.read.pool.p99_us", "us"},
	{"wire.read.spill.p50_us", "us"},
	{"wire.read.spill.p99_us", "us"},
	{"wire.free.p50_us", "us"},
	{"wire.free.p99_us", "us"},
	{"wire.write_mb_s", "MB/s"},
	{"wire.read_mb_s", "MB/s"},
	{"wire.ops", "count"},
	{"wire.ops_failed", "count"},
	{"pool.spill_share", "ratio"},

	{"serve.requests.alloc_write", "count"},
	{"serve.requests.read", "count"},
	{"serve.requests.spill_loc", "count"},
	{"serve.requests.pool_loc", "count"},
	{"serve.requests.free", "count"},
	{"serve.zero_copy_mb", "MB"},
	{"serve.zero_copy_fallbacks", "count"},
	{"serve.fdpass_fails", "count"},
	{"serve.cpu_s", "s"},
	{"client.cpu_s", "s"},

	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_share", "ratio"},
	{"trace.parked_share", "ratio"},
	{"trace.cpu_sum_ratio", "ratio"},
	{"trace.flags", "count"},
}

// zeroLayers returns a map holding 0 for every per-layer metric, so a
// workload only fills in the layers it exercises.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, x := range perLayer {
		m[x.name] = 0
	}
	return m
}

const mb = 1 << 20

// median returns the middle of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// cpuSeconds returns this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// procCPUSeconds returns a process's user+system CPU time from
// /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, os.ErrInvalid
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, fixed at 100 on Linux.
const clockTicks = 100

// peakRSSMB returns a process's VmHWM in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
