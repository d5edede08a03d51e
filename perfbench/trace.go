package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spongefiles/internal/cluster"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/pig"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
)

// wrapFactory wraps a job's spill.Factory so every spill-file call is
// timed in virtual seconds — Create, Write and Close count as writing,
// Read as reading — and kept as a span.
func (tr *tracer) wrapFactory(inner spill.Factory) spill.Factory {
	return func(node *cluster.Node) spill.Target {
		return &meteredTarget{tr: tr, inner: inner(node)}
	}
}

// meteredTarget is one task's spill target. Its task attempt is learned
// from the first wrapped call that sees the task's context.
type meteredTarget struct {
	tr    *tracer
	inner spill.Target
	task  *attempt
}

func (t *meteredTarget) Create(p *simtime.Proc, name string) spill.File {
	v0 := p.Now()
	f := t.inner.Create(p, name)
	t.tr.spillFiles++
	mf := &meteredFile{t: t, inner: f, id: t.tr.spillFiles}
	mf.done("create", v0, p.Now(), 0, true)
	return mf
}

func (t *meteredTarget) Stats() spill.Stats { return t.inner.Stats() }
func (t *meteredTarget) Close()             { t.inner.Close() }

type meteredFile struct {
	t     *meteredTarget
	inner spill.File
	id    int
	last  int // 1 + index of this file's latest span, 0 for none
}

// done accounts one call that ran from v0 to v1 in virtual time.
func (f *meteredFile) done(op string, v0, v1 simtime.Time, n int, write bool) {
	tr := f.t.tr
	d := v1.Sub(v0)
	if write {
		tr.spillWriteV += d
		tr.spillWriteBytes += int64(n)
	} else if op == "read" {
		tr.spillReadV += d
		tr.spillReadBytes += int64(n)
	}
	tr.spillSpan(f, op, v0, d, n)
}

func (f *meteredFile) Write(p *simtime.Proc, data []byte) error {
	v0 := p.Now()
	err := f.inner.Write(p, data)
	f.done("write", v0, p.Now(), len(data), true)
	return err
}

func (f *meteredFile) Close(p *simtime.Proc) error {
	v0 := p.Now()
	err := f.inner.Close(p)
	f.done("close", v0, p.Now(), 0, true)
	return err
}

func (f *meteredFile) Read(p *simtime.Proc, buf []byte) (int, error) {
	v0 := p.Now()
	n, err := f.inner.Read(p, buf)
	f.done("read", v0, p.Now(), n, false)
	return n, err
}

func (f *meteredFile) Delete(p *simtime.Proc) {
	v0 := p.Now()
	f.inner.Delete(p)
	f.done("delete", v0, p.Now(), 0, false)
}

func (f *meteredFile) Rewind()     { f.inner.Rewind() }
func (f *meteredFile) Size() int64 { return f.inner.Size() }

// attempt accumulates one task attempt's spans. Per-record wall timings
// are summed here rather than kept one by one.
type attempt struct {
	run *mapreduce.TaskRun
	tid int

	mapSelf    time.Duration // map function minus the emits it made
	emit       time.Duration // emits during which the virtual clock stood
	emitParked time.Duration // emits during which another proc ran
	records    int64
	udf        simtime.Duration

	// Scratch for the map wrapper: the engine's emit for the current
	// call, the wrapper handed to the map function in its place, and the
	// time spent inside it during the current call.
	curEmit mapreduce.Emit
	wrapped mapreduce.Emit
	inEmit  time.Duration
}

// genStat is one record generator invocation (one split attempt).
type genStat struct {
	split   int
	wall    time.Duration
	records int64
}

// vspan is one virtual-clock span: a run of back-to-back calls of one
// op on one spill file, or one UDF call.
type vspan struct {
	name   string
	cat    string
	target *meteredTarget // spill spans: resolved to a task at export
	task   *attempt       // UDF spans
	start  simtime.Time
	dur    simtime.Duration
	bytes  int
	file   int
	calls  int
}

// maxSpans bounds the spans kept for the trace file; the totals keep
// counting past it.
const maxSpans = 200_000

// tracer wraps the job's public seams — Input.MakeRecords and the emit
// the generator calls, JobConf.Map and the emit it receives,
// GroupQuery.UDF, and the spill.Factory and spill.File methods — and
// keeps spans in memory until the run ends. The simulator runs one proc at a time, so no locking is
// needed.
type tracer struct {
	sim      *simtime.Sim
	attempts map[*mapreduce.TaskRun]*attempt
	order    []*attempt
	last     *attempt
	gens     []*genStat
	spans    []vspan
	dropped  int
	pigMap   bool // the map function is Pig's compiled map

	bagSpills int64

	spillFiles                      int
	spillWriteBytes, spillReadBytes int64 // real bytes
	spillWriteV, spillReadV         simtime.Duration

	// Filled after the run: the CPU profile's per-layer seconds and the
	// process CPU time over the traced job.
	cpu      map[string]float64
	cpuTotal float64
}

func newTracer() *tracer {
	return &tracer{attempts: map[*mapreduce.TaskRun]*attempt{}}
}

// attemptOf returns the accumulator of the attempt running ctx.
func (tr *tracer) attemptOf(ctx *mapreduce.TaskContext) *attempt {
	run := ctx.Run()
	if tr.last != nil && tr.last.run == run {
		return tr.last
	}
	a := tr.attempts[run]
	if a == nil {
		a = &attempt{run: run, tid: len(tr.order) + 1}
		a.wrapped = func(k, v []byte) {
			v0 := tr.sim.Now()
			t0 := time.Now()
			a.curEmit(k, v)
			d := time.Since(t0)
			a.inEmit += d
			if tr.sim.Now() != v0 {
				a.emitParked += d
			} else {
				a.emit += d
			}
		}
		tr.attempts[run] = a
		tr.order = append(tr.order, a)
	}
	if mt, ok := ctx.Spill.(*meteredTarget); ok && mt.task == nil {
		mt.task = a
	}
	tr.last = a
	return a
}

// wrapInput times each split's generator between emits: the time from
// one emit's return to the next emit's call is generator work. The
// generator cannot park between emits, so these spans never do.
func (tr *tracer) wrapInput(in mapreduce.Input) mapreduce.Input {
	mk := in.MakeRecords
	in.MakeRecords = func(split int) mapreduce.RecordGen {
		gen := mk(split)
		g := &genStat{split: split}
		tr.gens = append(tr.gens, g)
		return func(emit mapreduce.Emit) {
			last := time.Now()
			gen(func(k, v []byte) {
				g.wall += time.Since(last)
				g.records++
				emit(k, v)
				last = time.Now()
			})
			g.wall += time.Since(last)
		}
	}
	return in
}

// wrapMap times the map function's self time (its wall time minus the
// emits it makes) and each emit. An emit during which the virtual clock
// moved parked — the sort buffer spilled and other procs ran — so its
// wall time is counted as parked, not attributed.
func (tr *tracer) wrapMap(inner mapreduce.MapFunc, pigMap bool) mapreduce.MapFunc {
	tr.pigMap = pigMap
	return func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
		a := tr.attemptOf(ctx)
		a.curEmit = emit
		a.inEmit = 0
		t0 := time.Now()
		inner(ctx, k, v, a.wrapped)
		a.mapSelf += time.Since(t0) - a.inEmit
		a.records++
	}
}

// wrapReduce only links the reduce task's spill target to its attempt,
// so spill spans made during the shuffle merge carry the task id.
func (tr *tracer) wrapReduce(inner mapreduce.ReduceFunc) mapreduce.ReduceFunc {
	return func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
		tr.attemptOf(ctx)
		inner(ctx, key, vals, emit)
	}
}

// wrapUDF times each group's UDF call in virtual seconds (it reads the
// bag back and may park) and reads the group's bag spill count.
func (tr *tracer) wrapUDF(inner pig.UDF) pig.UDF {
	return func(ctx *pig.UDFContext, group string, bag *pig.Bag, emit func(pig.Tuple)) {
		a := tr.attemptOf(ctx.Task)
		v0 := ctx.P.Now()
		inner(ctx, group, bag, emit)
		d := ctx.P.Now().Sub(v0)
		a.udf += d
		tr.bagSpills += int64(ctx.MM.Spills())
		tr.add(vspan{name: "udf " + group, cat: "pig", task: a, start: v0, dur: d})
	}
}

// spillSpan records one spill-file call. A call that starts the instant
// the file's previous call of the same op ended extends that span — a
// bag spill writes tuple by tuple, hundreds of thousands of calls per
// job — so a span is a run of back-to-back calls.
func (tr *tracer) spillSpan(f *meteredFile, op string, v0 simtime.Time, d simtime.Duration, n int) {
	name := "spill " + op
	if f.last > 0 {
		if s := &tr.spans[f.last-1]; s.name == name && s.start.Add(s.dur) == v0 {
			s.dur += d
			s.bytes += n
			s.calls++
			return
		}
	}
	if tr.add(vspan{name: name, cat: "spill", target: f.t, start: v0, dur: d, bytes: n, file: f.id, calls: 1}) {
		f.last = len(tr.spans)
	}
}

// add keeps a span unless the cap is reached, and reports whether it did.
func (tr *tracer) add(s vspan) bool {
	if len(tr.spans) >= maxSpans {
		tr.dropped++
		return false
	}
	tr.spans = append(tr.spans, s)
	return true
}

// layers fills the per-layer metrics the tracer measured; scale converts
// real spill bytes to virtual ones.
func (tr *tracer) layers(m map[string]float64, scale int64) {
	m["spill.files"] = float64(tr.spillFiles)
	m["spill.write_mb"] = float64(tr.spillWriteBytes*scale) / mb
	m["spill.read_mb"] = float64(tr.spillReadBytes*scale) / mb
	m["spill.write_virtual_s"] = tr.spillWriteV.Seconds()
	m["spill.read_virtual_s"] = tr.spillReadV.Seconds()

	var mapSelf, emit, parked time.Duration
	for _, a := range tr.order {
		mapSelf += a.mapSelf
		emit += a.emit
		parked += a.emitParked
		m["pig.udf_virtual_s"] += a.udf.Seconds()
	}
	var gen time.Duration
	var genRecords int64
	for _, g := range tr.gens {
		gen += g.wall
		genRecords += g.records
	}
	m["workload.records"] = float64(genRecords)
	m["workload.gen_s"] = gen.Seconds()
	if tr.pigMap {
		m["pig.map_s"] = mapSelf.Seconds()
	}
	m["pig.bag_spills"] = float64(tr.bagSpills)
	m["mapreduce.emit_s"] = emit.Seconds()
	attributed := (gen + mapSelf + emit).Seconds()
	if total := attributed + parked.Seconds(); total > 0 {
		m["trace.parked_share"] = parked.Seconds() / total
	}
	for k, v := range tr.cpu {
		m[k] = v
	}
	cpuLayersDerived(m, tr.cpuTotal)
}

// cpuLayersDerived fills the reconciliation figures from the CPU layer
// seconds already in m and the process CPU time they should add up to.
func cpuLayersDerived(m map[string]float64, cpuTotal float64) {
	sum := m["cpu.total_s"]
	if cpuTotal > 0 {
		m["trace.cpu_sum_ratio"] = sum / cpuTotal
	}
	if sum > 0 {
		m["trace.unattributed_share"] = m["cpu.other_s"] / sum
	}
}

// traceFlags lists a traced run's reconciliation failures and counts
// them in trace.flags.
func traceFlags(m map[string]float64) []string {
	var out []string
	if r := m["trace.cpu_sum_ratio"]; r < 0.9 || r > 1.1 {
		out = append(out, fmt.Sprintf("FLAG: CPU layers sum to %.3f of the traced run's CPU time (want within 10%%)", r))
	}
	if s := m["trace.unattributed_share"]; s > 0.1 {
		out = append(out, fmt.Sprintf("FLAG: %.1f%% of CPU time is attributed to no layer (want at most 10%%)", 100*s))
	}
	m["trace.flags"] = float64(len(out))
	return out
}

// chromeEvent is one Chrome trace-event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func usec(t simtime.Time) float64      { return float64(t) / float64(simtime.Microsecond) }
func usecD(d simtime.Duration) float64 { return float64(d) / float64(simtime.Microsecond) }
func msec(d time.Duration) float64     { return float64(d) / float64(time.Millisecond) }
func taskName(r *mapreduce.TaskRun) string {
	return fmt.Sprintf("%s %d attempt %d", r.Kind, r.Index, r.Attempt)
}

// writeChrome writes the job's spans as a Chrome trace-event file on the
// virtual timeline: one track per task attempt holding the attempt, its
// spill-file calls and its UDF calls. The attempt's wall-clock sums (map
// self time, emits, generator) ride on the attempt event's args.
func (tr *tracer) writeChrome(dir, workload string, seed int64, res *mapreduce.JobResult, scale int64) (string, error) {
	for _, r := range res.Tasks {
		if tr.attempts[r] == nil {
			a := &attempt{run: r, tid: len(tr.order) + 1}
			tr.attempts[r] = a
			tr.order = append(tr.order, a)
		}
	}
	genBySplit := map[int]time.Duration{}
	for _, g := range tr.gens {
		genBySplit[g.split] += g.wall
	}
	var ev []chromeEvent
	ev = append(ev, chromeEvent{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": res.Name + " (virtual time)"}})
	for _, a := range tr.order {
		r := a.run
		ev = append(ev, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: a.tid, Args: map[string]any{"name": fmt.Sprintf("node %02d %s", r.Node, taskName(r))}})
		args := map[string]any{
			"node":           r.Node,
			"input_mb":       float64(r.InputVirtual) / mb,
			"spill_events":   r.SpillEvents,
			"merge_rounds":   r.MergeRounds,
			"spill_chunks":   r.Spill.Chunks,
			"spilled_mb":     float64(r.Spill.BytesReal*scale) / mb,
			"map_self_ms":    msec(a.mapSelf),
			"emit_ms":        msec(a.emit),
			"emit_parked_ms": msec(a.emitParked),
			"records":        a.records,
			"udf_virtual_s":  a.udf.Seconds(),
		}
		if r.Kind == mapreduce.MapTask {
			args["gen_ms"] = msec(genBySplit[r.Index])
		}
		if r.Err != nil {
			args["error"] = r.Err.Error()
		}
		ev = append(ev, chromeEvent{Name: taskName(r), Cat: "task", Ph: "X", Ts: usec(r.Start), Dur: usecD(r.Duration()), Pid: 1, Tid: a.tid, Args: args})
	}
	for _, s := range tr.spans {
		task := s.task
		if s.target != nil {
			task = s.target.task
		}
		tid := 0
		if task != nil {
			tid = task.tid
		}
		var args map[string]any
		if s.cat == "spill" {
			args = map[string]any{"file": s.file, "calls": s.calls, "mb": float64(int64(s.bytes)*scale) / mb}
		}
		ev = append(ev, chromeEvent{Name: s.name, Cat: s.cat, Ph: "X", Ts: usec(s.start), Dur: usecD(s.dur), Pid: 1, Tid: tid, Args: args})
	}
	return writeChromeFile(dir, workload, seed, ev, map[string]any{
		"workload":      workload,
		"seed":          seedLabel(seed),
		"clock":         "virtual",
		"spans_dropped": tr.dropped,
	})
}

// writeChromeFile writes trace events as dir/trace-<workload>-seed<n>.json.
func writeChromeFile(dir, workload string, seed int64, ev []chromeEvent, other map[string]any) (string, error) {
	doc := map[string]any{"traceEvents": ev, "displayTimeUnit": "ms", "otherData": other}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%s.json", workload, seedLabel(seed)))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}
