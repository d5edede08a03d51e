package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"

	"spongefiles/internal/cluster"
	"spongefiles/internal/dfs"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/media"
	"spongefiles/internal/obs"
	"spongefiles/internal/pig"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
	"spongefiles/internal/sponge"
	"spongefiles/internal/workload"
)

// simKind selects one of the two simulated workloads.
type simKind int

const (
	// simMedian is the MapReduce median job at paper scale with sponge
	// spilling: the map sort/merge path and the sponge allocator chain,
	// with no Pig and no web corpus.
	simMedian simKind = iota
	// simSpam is the spam-quantiles Pig query at half scale with stock
	// disk spilling: the Pig tuple codec, bags, corpus generation and the
	// disk model, with the sponge layer idle.
	simSpam
)

// simShape is the cluster and job shape of a simulated workload; it
// mirrors bench.MacroConfig{NodeMemory: 4 GB, Workers: 29, ...} so the
// job is the one bench.RunMacro runs.
type simShape struct {
	sizeFactor float64
	sponge     bool
}

func (k simKind) shape() simShape {
	if k == simMedian {
		return simShape{sizeFactor: 1.0, sponge: true}
	}
	return simShape{sizeFactor: 0.5, sponge: false}
}

const (
	simWorkers    = 29
	simNodeMemory = 4 * media.GB
)

// simJob is one job assembled on a fresh simulated cluster.
type simJob struct {
	kind   simKind
	sim    *simtime.Sim
	c      *cluster.Cluster
	eng    *mapreduce.Engine
	svc    *sponge.Service
	reg    *obs.Registry
	conf   mapreduce.JobConf
	nums   *workload.Numbers
	web    *workload.WebCorpus
	splits int

	// Outputs, filled by the job's reduce.
	median float64
	groups map[string][]pig.Tuple
}

// assemble builds the job from the public constructors, following
// bench.RunMacro: a 29-worker paper cluster with 4 GB nodes, the DFS,
// the engine, the sponge service (with the sponge memory carve-up only
// when spilling to sponge) and the job. scale shrinks the dataset below
// the workload's size factor (1 for the benchmark, smaller in tests). A
// non-nil tracer wraps the public seams.
func assemble(kind simKind, seed int64, scale float64, tr *tracer) *simJob {
	sh := kind.shape()
	cfg := cluster.PaperConfig()
	cfg.Workers = simWorkers
	cfg.NodeMemory = simNodeMemory
	if !sh.sponge {
		cfg.SpongeMemory = 0 // stock Hadoop reserves no sponge
	}
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	fs := dfs.New(c)
	eng := mapreduce.NewEngine(c, fs)
	scfg := sponge.DefaultConfig()
	scfg.Remote = dfs.NewSpillStore(fs)
	reg := obs.NewRegistry()
	scfg.Metrics = reg
	svc := sponge.Start(c, scfg)

	factory := spill.DiskFactory()
	if sh.sponge {
		factory = spill.SpongeFactory(svc)
	}
	j := &simJob{kind: kind, sim: sim, c: c, eng: eng, svc: svc, reg: reg, groups: map[string][]pig.Tuple{}}
	if tr != nil {
		factory = tr.wrapFactory(factory)
		tr.sim = sim
	}

	size := sh.sizeFactor * scale
	switch kind {
	case simMedian:
		j.conf = j.medianJob(fs, factory, size, seed, tr)
	case simSpam:
		j.conf = j.spamJob(fs, factory, cfg.TaskHeap, size, seed, tr)
	}
	return j
}

// medianJob is bench's median job: every number routes to the single
// reduce, which streams the sorted values to the middle one.
func (j *simJob) medianJob(fs *dfs.DFS, factory spill.Factory, size float64, seed int64, tr *tracer) mapreduce.JobConf {
	nums := workload.DefaultNumbers(j.c.Cfg.Scale)
	if seed >= 0 {
		nums.Seed = seed
	}
	nums.TotalVirtual = int64(float64(nums.TotalVirtual) * size)
	fs.AddExisting("/in/numbers", nums.TotalVirtual)
	j.nums = nums
	j.splits = len(fs.Lookup("/in/numbers").Blocks)
	total := nums.Records()
	var seen int64
	// Tasks run one at a time under the simulator, so one scratch key
	// buffer is shared by every map task of the job.
	var kbuf [8]byte
	conf := mapreduce.JobConf{
		Name:        "median",
		Input:       nums.Input("/in/numbers", j.splits),
		NumReducers: 1,
		Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
			emit(medianKey(&kbuf, workload.DecodeNumber(v)), v[8:])
		},
		Reduce: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			for {
				if _, ok := vals.Next(); !ok {
					break
				}
				seen++
				if seen == total/2 {
					j.median = math.Float64frombits(binaryBE(key))
					emit([]byte("median"), key)
				}
			}
		},
		SpillFactory: factory,
	}
	if tr != nil {
		conf.Input = tr.wrapInput(conf.Input)
		conf.Map = tr.wrapMap(conf.Map, false)
		conf.Reduce = tr.wrapReduce(conf.Reduce)
	}
	return conf
}

// spamJob is bench's spam-quantiles query: no projection, group by
// domain, spam-score deciles over an ordered bag, one reducer per worker.
func (j *simJob) spamJob(fs *dfs.DFS, factory spill.Factory, heap int64, size float64, seed int64, tr *tracer) mapreduce.JobConf {
	w := workload.DefaultWebCorpus(j.c.Cfg.Scale)
	if seed >= 0 {
		w.Seed = seed
	}
	w.TotalVirtual = int64(float64(w.TotalVirtual) * size)
	fs.AddExisting("/in/web", w.TotalVirtual)
	j.web = w
	j.splits = len(fs.Lookup("/in/web").Blocks)
	q := &pig.GroupQuery{
		Name:     "spam-quantiles",
		Input:    w.Input("/in/web", j.splits),
		GroupKey: func(t pig.Tuple) string { return t.String(1) },
		SortKey:  func(t pig.Tuple) pig.Value { return t.Float(3) },
		UDF:      pig.Quantiles(spamScoreField, spamQuantiles),
	}
	if tr != nil {
		q.Input = tr.wrapInput(q.Input)
		q.UDF = tr.wrapUDF(q.UDF)
	}
	conf := q.Compile(heap, factory)
	conf.NumReducers = len(j.c.Nodes)
	if tr != nil {
		conf.Map = tr.wrapMap(conf.Map, true)
	}
	inner := conf.Reduce
	conf.Reduce = func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
		inner(ctx, key, vals, func(k, v []byte) {
			j.groups[string(k)] = append(j.groups[string(k)], pig.DecodeTuple(v))
			emit(k, v)
		})
	}
	if tr != nil {
		conf.Reduce = tr.wrapReduce(conf.Reduce)
	}
	return conf
}

const (
	spamScoreField = 3
	spamQuantiles  = 10
)

// medianKey encodes a non-negative float64 so byte order is numeric
// order (bench's key encoding).
func medianKey(dst *[8]byte, v float64) []byte {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		dst[i] = byte(bits >> (56 - 8*i))
	}
	return dst[:]
}

func binaryBE(b []byte) uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(b[i])
	}
	return x
}

// close unmaps the sponge pools' memory-file slabs, which nothing else
// releases; without it every job's touched pool pages stay resident.
func (j *simJob) close() {
	for _, srv := range j.svc.Servers {
		srv.Pool().Close()
	}
}

// run submits the job, runs the simulation to completion and returns the
// job's result and the host time from submit to simulation end.
func (j *simJob) run() (*mapreduce.JobResult, time.Duration, error) {
	var res *mapreduce.JobResult
	t0 := time.Now()
	j.sim.Spawn("driver", func(p *simtime.Proc) {
		res = j.eng.Submit(j.conf).Wait(p)
	})
	if _, err := j.sim.Run(); err != nil {
		return nil, 0, fmt.Errorf("simulation: %w", err)
	}
	wall := time.Since(t0)
	if res == nil || res.Failed {
		return res, wall, fmt.Errorf("%s job failed", j.conf.Name)
	}
	return res, wall, nil
}

// reference is a job's expected output, computed on the host from the
// generated inputs.
type reference struct {
	median float64
	groups map[string][]float64 // domain → decile scores
}

// computeReference derives the expected output from the same inputs the
// job reads: host-side selection over Numbers.Value for the median, and
// per-domain deciles over the generated pages for spam quantiles.
func (j *simJob) computeReference() reference {
	var ref reference
	switch j.kind {
	case simMedian:
		total := j.nums.Records()
		vals := make([]float64, total)
		for i := range vals {
			vals[i] = j.nums.Value(int64(i))
		}
		sort.Float64s(vals)
		ref.median = vals[total/2-1] // the reduce stops at the (total/2)-th value
	case simSpam:
		scores := map[string][]float64{}
		in := j.web.Input("/in/web", j.splits)
		for s := 0; s < j.splits; s++ {
			in.MakeRecords(s)(func(k, v []byte) {
				t := pig.DecodeTuple(v)
				scores[t.String(1)] = append(scores[t.String(1)], t.Float(spamScoreField))
			})
		}
		ref.groups = make(map[string][]float64, len(scores))
		for d, xs := range scores {
			sort.Float64s(xs)
			n := len(xs)
			q := make([]float64, 0, spamQuantiles+1)
			for i := 0; i <= spamQuantiles; i++ {
				q = append(q, xs[i*(n-1)/spamQuantiles])
			}
			ref.groups[d] = q
		}
	}
	return ref
}

// jobReport is what one job process reports to the benchmark: its
// timings, its output for the check, and, for a traced job, its layer
// figures.
type jobReport struct {
	Setup   float64 `json:"setup"`
	Wall    float64 `json:"wall"`
	CPU     float64 `json:"cpu"`
	Virtual float64 `json:"virtual"`
	PeakRSS float64 `json:"peak_rss_mb"`
	// Runtime allocation over the job: bytes, objects, GC cycles.
	AllocMB  float64 `json:"alloc_mb"`
	Allocs   float64 `json:"allocs"`
	GCCycles float64 `json:"gc_cycles"`

	Median float64                 `json:"median"`
	Groups map[string][][2]float64 `json:"groups"`

	Layers    map[string]float64 `json:"layers,omitempty"`
	TracePath string             `json:"trace,omitempty"`
}

// Set-up is timed in processes of its own, spawned between jobs across
// the window: one assembly takes about a millisecond, and its speed
// varies by up to 2x from one process to the next, so setup_s is the
// median over many processes. A job process assembles only its own job:
// an assembly that is never run leaves its simulated procs' goroutines
// parked for good, pinning its whole cluster, and would weigh on the
// job's peak RSS, CPU and GC figures.
const (
	setupProcs  = 4  // set-up processes after each untraced job
	setupBuilds = 12 // assemblies timed in each
)

// jobMain is the `job` subcommand: assemble and run one simulated job in
// this process and print its jobReport as JSON. Each job gets a fresh
// process because a finished simulation leaves its daemon procs parked
// for good, holding the whole cluster: in one long-lived process every
// job would inherit the previous jobs' heaps, in resident memory and in
// garbage-collection work.
//
//	perfbench job <workload> <seed> <trace 0|1> <out dir> <scale>
func jobMain(args []string) error {
	if len(args) != 5 {
		return fmt.Errorf("job: want <workload> <seed> <trace> <out dir> <scale>")
	}
	kind, seed, scale, err := parseSimArgs(args[0], args[1], args[4])
	if err != nil {
		return fmt.Errorf("job: %w", err)
	}
	rep, err := runJob(kind, args[0], seed, args[2] == "1", args[3], scale)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// setupMain is the `setup` subcommand: time setupBuilds assemblies of a
// simulated job in this process and print their seconds as JSON.
//
//	perfbench setup <workload> <seed> <scale>
func setupMain(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("setup: want <workload> <seed> <scale>")
	}
	kind, seed, scale, err := parseSimArgs(args[0], args[1], args[2])
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	out := make([]float64, 0, setupBuilds)
	for i := 0; i < setupBuilds; i++ {
		t0 := time.Now()
		j := assemble(kind, seed, scale, nil)
		out = append(out, time.Since(t0).Seconds())
		j.close()
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

func parseSimArgs(workload, seedArg, scaleArg string) (simKind, int64, float64, error) {
	kind, ok := map[string]simKind{"median-sponge": simMedian, "spamq-disk": simSpam}[workload]
	if !ok {
		return 0, 0, 0, fmt.Errorf("unknown simulated workload %q", workload)
	}
	seed, err := strconv.ParseInt(seedArg, 10, 64)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("seed: %w", err)
	}
	scale, err := strconv.ParseFloat(scaleArg, 64)
	if err != nil || scale <= 0 {
		return 0, 0, 0, fmt.Errorf("bad scale %q", scaleArg)
	}
	return kind, seed, scale, nil
}

// runJob assembles the job, runs it and reports. A traced job wraps the
// public seams, runs under a CPU profile and writes its Chrome trace file
// and CPU profile into dir.
func runJob(kind simKind, name string, seed int64, traced bool, dir string, scale float64) (jobReport, error) {
	var rep jobReport
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	t0 := time.Now()
	j := assemble(kind, seed, scale, tr)
	rep.Setup = time.Since(t0).Seconds()
	defer j.close()

	var prof *profile
	if traced {
		var err error
		if prof, err = startProfile(); err != nil {
			return rep, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	res, wall, err := j.run()
	rep.CPU = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	var cpu map[string]float64
	if traced {
		prof.stop()
		var perr error
		if cpu, perr = prof.layers(profilePath(dir, name, seed)); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		return rep, err
	}
	rep.Wall = wall.Seconds()
	rep.Virtual = res.Duration().Seconds()
	rep.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / mb
	rep.Allocs = float64(m1.Mallocs - m0.Mallocs)
	rep.GCCycles = float64(m1.NumGC - m0.NumGC)
	if rep.PeakRSS, err = peakRSSMB("self"); err != nil {
		return rep, err
	}
	rep.Median = j.median
	rep.Groups = map[string][][2]float64{}
	for d, ts := range j.groups {
		for _, t := range ts {
			rep.Groups[d] = append(rep.Groups[d], [2]float64{float64(t.Int(0)), t.Float(1)})
		}
	}
	if !traced {
		return rep, nil
	}
	rep.Layers = zeroLayers()
	simLayers(rep.Layers, j, res)
	tr.cpu, tr.cpuTotal = cpu, rep.CPU
	tr.layers(rep.Layers, j.c.Cfg.Scale)
	rep.Layers["job.virtual_s"] = rep.Virtual
	if rep.TracePath, err = tr.writeChrome(dir, name, seed, res, j.c.Cfg.Scale); err != nil {
		return rep, err
	}
	return rep, nil
}

// check compares a job's output with the reference.
func (rep jobReport) check(kind simKind, ref reference) error {
	switch kind {
	case simMedian:
		if rep.Median != ref.median {
			return fmt.Errorf("median %v, reference %v", rep.Median, ref.median)
		}
	case simSpam:
		if len(rep.Groups) != len(ref.groups) {
			return fmt.Errorf("%d domains in output, %d in reference", len(rep.Groups), len(ref.groups))
		}
		for d, want := range ref.groups {
			got := rep.Groups[d]
			if len(got) != len(want) {
				return fmt.Errorf("domain %s: %d deciles, reference %d", d, len(got), len(want))
			}
			for i, t := range got {
				if t[0] != float64(i) || t[1] != want[i] {
					return fmt.Errorf("domain %s decile %d: got %v, reference %v", d, i, t, want[i])
				}
			}
		}
	}
	return nil
}

// spawnJob runs one job in a fresh child process of this binary.
func spawnJob(o runOpts, traced bool) (jobReport, error) {
	var rep jobReport
	trace := "0"
	if traced {
		trace = "1"
	}
	err := runChild(&rep, "job", o.workload, strconv.FormatInt(o.seed, 10), trace, o.outDir,
		strconv.FormatFloat(o.scale, 'g', -1, 64))
	return rep, err
}

// spawnSetup times setupBuilds assemblies in a fresh child process.
func spawnSetup(o runOpts) ([]float64, error) {
	var secs []float64
	err := runChild(&secs, "setup", o.workload, strconv.FormatInt(o.seed, 10), strconv.FormatFloat(o.scale, 'g', -1, 64))
	return secs, err
}

// runChild runs a subcommand of this binary in a child process and
// decodes its JSON output into out.
func runChild(out any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s process: %w", args[0], err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s process report: %w", args[0], err)
	}
	return nil
}

// runSim runs a simulated workload. The untraced run times
// jobs back to back for the window; the traced run alternates an
// untraced and a traced job, so the tracing overhead is measured on
// equal terms.
func runSim(kind simKind, o runOpts) (result, error) {
	// The reference depends only on the seed; it is computed once, before
	// the window opens.
	j0 := assemble(kind, o.seed, o.scale, nil)
	ref := j0.computeReference()
	j0.close()

	res := result{metrics: map[string]float64{}}
	var setups, walls, cpus, virtuals, rss, tracedWalls []float64
	var plain, traced []jobReport
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < o.window; rep++ {
		modes := []bool{false}
		if o.traced {
			modes = append(modes, true)
		}
		for _, tr := range modes {
			r, err := spawnJob(o, tr)
			res.attempted++
			if err == nil {
				err = r.check(kind, ref)
			}
			if err != nil {
				res.failed++
				res.notes = append(res.notes, fmt.Sprintf("job %d: %v", rep, err))
				continue
			}
			if tr {
				traced = append(traced, r)
				tracedWalls = append(tracedWalls, r.Wall)
				continue
			}
			plain = append(plain, r)
			setups = append(setups, r.Setup)
			if !o.traced {
				for i := 0; i < setupProcs; i++ {
					secs, err := spawnSetup(o)
					if err != nil {
						return res, err
					}
					setups = append(setups, secs...)
				}
			}
			walls = append(walls, r.Wall)
			cpus = append(cpus, r.CPU)
			virtuals = append(virtuals, r.Virtual)
			rss = append(rss, r.PeakRSS)
		}
	}
	if res.failed > 0 {
		return res, nil
	}
	if !o.traced {
		res.metrics["wall_s"] = median(walls)
		res.metrics["cpu_s"] = median(cpus)
		res.metrics["setup_s"] = median(setups)
		res.metrics["peak_rss_mb"] = median(rss)
		res.notes = append(res.notes, fmt.Sprintf("%d jobs, one process each; %d assemblies timed for set-up", len(walls), len(setups)),
			fmt.Sprintf("%-34s %14.6f s (simulated job runtime)", "virtual_s", median(virtuals)))
		return res, nil
	}
	// Layer figures come from the first traced job; the runtime's
	// allocation figures from its untraced twin, which carries no
	// tracing allocations.
	m := traced[0].Layers
	m["runtime.alloc_mb"] = plain[0].AllocMB
	m["runtime.allocs"] = plain[0].Allocs
	m["runtime.gc_cycles"] = plain[0].GCCycles
	m["trace.overhead_ratio"] = median(tracedWalls) / median(walls)
	m["error_rate"] = float64(res.failed) / float64(res.attempted)
	res.notes = append(res.notes, "trace written to "+traced[0].TracePath,
		"CPU profile written to "+profilePath(o.outDir, o.workload, o.seed))
	res.notes = append(res.notes, traceFlags(m)...)
	res.metrics = m
	return res, nil
}

// simLayers fills the per-layer metrics read from the finished job, the
// service's registry, the disks and the simulator.
func simLayers(m map[string]float64, j *simJob, res *mapreduce.JobResult) {
	for _, t := range res.Tasks {
		if t.Err != nil {
			m["mapreduce.failed_attempts"]++
			continue
		}
		switch t.Kind {
		case mapreduce.MapTask:
			m["mapreduce.map_virtual_s"] += t.Duration().Seconds()
		case mapreduce.ReduceTask:
			m["mapreduce.reduce_virtual_s"] += t.Duration().Seconds()
		}
		m["mapreduce.spill_events"] += float64(t.SpillEvents)
		m["mapreduce.merge_rounds"] += float64(t.MergeRounds)
	}
	if st := res.Straggler(); st != nil {
		m["mapreduce.straggler_virtual_s"] = st.Duration().Seconds()
		m["mapreduce.straggler_input_mb"] = float64(st.InputVirtual) / mb
	}

	for _, s := range j.reg.Snapshot() {
		v := float64(s.Value)
		switch {
		case s.ID == `sponge_spill_chunks_total{kind="local_mem"}`:
			m["sponge.chunks.local_mem"] = v
		case s.ID == `sponge_spill_chunks_total{kind="remote_mem"}`:
			m["sponge.chunks.remote_mem"] = v
		case s.ID == `sponge_spill_chunks_total{kind="local_disk"}`:
			m["sponge.chunks.local_disk"] = v
		case s.ID == `sponge_spill_chunks_total{kind="remote_fs"}`:
			m["sponge.chunks.remote_fs"] = v
		case hasSeries(s.ID, "sponge_spill_fallback_total"):
			m["sponge.fallbacks"] += v
		case hasSeries(s.ID, "sponge_retries_total"):
			m["sponge.retries"] += v
		case s.ID == "sponge_tracker_queries_total":
			m["sponge.tracker_queries"] = v
		case s.ID == "sponge_ra_window_hits_total":
			m["sponge.ra_hits"] = v
		}
	}

	for _, n := range j.c.Nodes {
		ds := n.Disk.Stats()
		m["media.disk_write_mb"] += float64(ds.PlatterWriteBytes) / mb
		m["media.disk_read_mb"] += float64(ds.PlatterReadBytes) / mb
		m["media.seeks"] += float64(ds.Seeks)
		m["media.cache_hit_mb"] += float64(ds.CacheHitBytes) / mb
		m["media.throttle_virtual_s"] += ds.ThrottleTime.Seconds()
		m["media.disk_busy_virtual_s"] += n.Disk.Arm().BusyTime().Seconds()
	}

	spawns, reuses := j.sim.ProcStats()
	m["simtime.procs_spawned"] = float64(spawns)
	m["simtime.procs_reused"] = float64(reuses)
}

// hasSeries reports whether a series id belongs to the named metric.
func hasSeries(id, name string) bool {
	return id == name || (len(id) > len(name) && id[:len(name)] == name && id[len(name)] == '{')
}

func seedLabel(seed int64) string {
	if seed < 0 {
		return "default"
	}
	return strconv.FormatInt(seed, 10)
}
