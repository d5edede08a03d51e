package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"spongefiles/internal/obs"
	"spongefiles/internal/scenario"
	"spongefiles/internal/sponge"
	"spongefiles/internal/sponge/wire"
)

// wireMode selects the transport tier of a wire workload. Both modes run
// the same daemon and the same op mix.
type wireMode int

const (
	// wireRemote dials the daemon over loopback TCP: every payload
	// crosses the daemon's serve loop (pool copy for pool chunks,
	// sendfile for spill-file chunks).
	wireRemote wireMode = iota
	// wireLocal dials the unix socket and arms fd passing: writes still
	// go through the daemon, reads are preaded by the client from the
	// memfd pool or the spill file.
	wireLocal
)

const (
	wireChunk = 1 << 20 // bytes per chunk
	wirePool  = 128     // chunks in the daemon's memory pool
	// wireChunks per round is four times the pool, so three quarters of
	// every round lands in the daemon's spill file.
	wireChunks = 4 * wirePool
	// wireConns is one closed-loop client goroutine. The host has two
	// cores, and client plus daemon already keep both busy on one
	// connection; a second connection made a round's wall time measure
	// how much of both cores other load left free (it rose 45% beside a
	// one-core busy loop, against 5% with one connection).
	wireConns = 1
	// wireWarmup rounds run and are checked before timing starts: the
	// first round also faults in the daemon's pool pages.
	wireWarmup = 1
	// wireSetups is how many times a run spawns, dials and arms the
	// daemon; setup_s is the median and the last set-up is measured.
	wireSetups = 15
)

// wireRig is a spawned daemon and its connected clients.
type wireRig struct {
	h       *scenario.Harness
	clients []*wire.Client
}

func (r *wireRig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	r.h.Stop()
}

// setupWire spawns one daemon child of this binary's serve subcommand,
// dials it wireConns times over the mode's tier, and arms fd passing
// for the local tier.
func setupWire(mode wireMode, dir string) (*wireRig, error) {
	h, err := scenario.Spawn(scenario.HarnessOptions{
		Nodes:      1,
		ChunkBytes: wireChunk,
		Chunks:     wirePool,
		Wire:       wire.Options{LocalSocketDir: dir, SpillDir: dir},
		Stderr:     os.Stderr,
	})
	if err != nil {
		return nil, err
	}
	rig := &wireRig{h: h}
	for i := 0; i < wireConns; i++ {
		var c *wire.Client
		if mode == wireLocal {
			var sock string
			if sock, err = wire.SocketPath(dir, h.Addr(1)); err == nil {
				if c, err = wire.DialLocal(sock); err == nil {
					if err = c.ArmFDPass(); err != nil {
						c.Close()
					}
				}
			}
		} else {
			c, err = wire.Dial(h.Addr(1))
		}
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("dialing the daemon: %w", err)
		}
		rig.clients = append(rig.clients, c)
	}
	return rig, nil
}

// payloads hands out each chunk's bytes: a window into one seeded random
// buffer, at an offset distinct for every chunk of every round, so a
// misplaced or stale chunk cannot compare equal.
type payloads struct{ base []byte }

func newPayloads(seed int64) payloads {
	if seed < 0 {
		seed = 1
	}
	base := make([]byte, 8*wireChunk)
	rand.New(rand.NewSource(seed)).Read(base)
	return payloads{base: base}
}

func (p payloads) chunk(round, i int) []byte {
	span := len(p.base) - wireChunk
	off := ((round*wireChunks + i) * 65537) % span
	return p.base[off : off+wireChunk]
}

// opRecorder collects per-op latencies in traced runs, split by op and,
// for writes and reads, by whether the chunk sits in the pool or the
// spill file; it keeps the first traced round's ops as spans for the
// trace file.
type opRecorder struct {
	lat   map[string][]time.Duration
	spans []wireSpan
}

// wireSpan is one client op, timed from the start of its round.
type wireSpan struct {
	conn       int
	name       string
	start, dur time.Duration
}

func newOpRecorder() *opRecorder { return &opRecorder{lat: map[string][]time.Duration{}} }

func chunkTier(handle int) string {
	if handle&wire.SpillHandleBit != 0 {
		return "spill"
	}
	return "pool"
}

// roundStats is one round's timings. write and read are the longest
// per-connection sum of AllocWrite and ReadInto call times; wall spans
// the whole round, verification and frees included.
type roundStats struct {
	write, read, wall time.Duration
	ops, failed       int64
	spilled           int64
}

// round writes wireChunks chunks over the connections, reads each back
// with ReadInto and compares it byte for byte with what was written,
// then frees them all.
func (r *wireRig) round(n int, pl payloads, rec *opRecorder) (roundStats, error) {
	var st roundStats
	handles := make([]int, wireChunks)
	sums := make([]time.Duration, wireConns)
	local := make([]*opRecorder, wireConns)
	keepSpans := rec != nil && len(rec.spans) == 0
	t0 := time.Now()
	failed := make([]int64, wireConns)
	errs := make([]error, wireConns)
	owner := sponge.TaskID{Node: 0, PID: 1}
	phase := func(op func(c int, cl *wire.Client, i int) (time.Duration, string, error)) time.Duration {
		var wg sync.WaitGroup
		for c := 0; c < wireConns; c++ {
			sums[c] = 0
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if rec != nil && local[c] == nil {
					local[c] = newOpRecorder()
				}
				for i := c; i < wireChunks; i += wireConns {
					start := time.Since(t0)
					d, name, err := op(c, r.clients[c], i)
					if err != nil {
						errs[c] = err
						return
					}
					sums[c] += d
					if rec != nil {
						l := local[c]
						l.lat[name] = append(l.lat[name], d)
						if keepSpans {
							l.spans = append(l.spans, wireSpan{conn: c, name: name, start: start, dur: d})
						}
					}
				}
			}(c)
		}
		wg.Wait()
		var longest time.Duration
		for _, d := range sums {
			longest = max(longest, d)
		}
		return longest
	}
	bufs := make([][]byte, wireConns)
	for c := range bufs {
		bufs[c] = make([]byte, wireChunk)
	}
	st.write = phase(func(c int, cl *wire.Client, i int) (time.Duration, string, error) {
		t := time.Now()
		h, err := cl.AllocWrite(owner, pl.chunk(n, i))
		d := time.Since(t)
		handles[i] = h
		return d, "write." + chunkTier(h), err
	})
	if err := firstErr(errs); err != nil {
		return st, fmt.Errorf("write: %w", err)
	}
	if readPhaseTestHook != nil {
		readPhaseTestHook()
	}
	st.read = phase(func(c int, cl *wire.Client, i int) (time.Duration, string, error) {
		buf := bufs[c]
		t := time.Now()
		got, err := cl.ReadInto(handles[i], buf)
		d := time.Since(t)
		if err == nil && (got != wireChunk || !bytes.Equal(buf[:got], pl.chunk(n, i))) {
			failed[c]++
		}
		return d, "read." + chunkTier(handles[i]), err
	})
	if err := firstErr(errs); err != nil {
		return st, fmt.Errorf("read: %w", err)
	}
	phase(func(c int, cl *wire.Client, i int) (time.Duration, string, error) {
		t := time.Now()
		err := cl.Free(handles[i])
		return time.Since(t), "free", err
	})
	if err := firstErr(errs); err != nil {
		return st, fmt.Errorf("free: %w", err)
	}
	st.wall = time.Since(t0)
	st.ops = 3 * wireChunks
	for c := range failed {
		st.failed += failed[c]
	}
	for _, h := range handles {
		if h&wire.SpillHandleBit != 0 {
			st.spilled++
		}
	}
	for _, l := range local {
		if l == nil {
			continue
		}
		for k, v := range l.lat {
			rec.lat[k] = append(rec.lat[k], v...)
		}
		rec.spans = append(rec.spans, l.spans...)
	}
	return st, nil
}

// readPhaseTestHook, when non-nil, runs between a round's write and read
// phases; the self-tests corrupt the daemon's stored chunks there.
var readPhaseTestHook func()

func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// runWire runs a wire workload. Set-up (spawn, dial, arm) is
// repeated wireSetups times; then, after wireWarmup untimed rounds,
// rounds run back to back for the window.
// A traced run spends the first half of its window on untraced rounds
// and the second half on traced rounds under one CPU profile, with the
// daemon's metrics and CPU time scraped around them.
func runWire(mode wireMode, o runOpts) (result, error) {
	res := result{metrics: map[string]float64{}}
	pl := newPayloads(o.seed)
	dir, err := os.MkdirTemp(o.outDir, "wire-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	var setups []float64
	var rig *wireRig
	for i := 0; i < wireSetups; i++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		if rig, err = setupWire(mode, dir); err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer rig.close()

	window := o.window
	if o.traced {
		window /= 2
	}
	var walls, cpus, writes, reads []float64
	var spilled, chunks int64
	for n := 0; n < wireWarmup; n++ {
		st, err := rig.round(n, pl, nil)
		res.attempted += st.ops
		res.failed += st.failed
		if err != nil {
			res.failed++
			return res, err
		}
	}
	start := time.Now()
	pid := rig.h.Pid(1)
	for n := wireWarmup; n == wireWarmup || time.Since(start) < window; n++ {
		srv0, err := procCPUSeconds(pid)
		if err != nil {
			return res, err
		}
		cli0 := cpuSeconds()
		st, err := rig.round(n, pl, nil)
		cli := cpuSeconds() - cli0
		srv1, serr := procCPUSeconds(pid)
		if err == nil {
			err = serr
		}
		res.attempted += st.ops
		res.failed += st.failed
		if err != nil {
			res.failed++
			return res, err
		}
		walls = append(walls, st.wall.Seconds())
		cpus = append(cpus, cli+srv1-srv0)
		writes = append(writes, wireChunks*float64(wireChunk)/mb/st.write.Seconds())
		reads = append(reads, wireChunks*float64(wireChunk)/mb/st.read.Seconds())
		spilled += st.spilled
		chunks += wireChunks
	}
	if !o.traced {
		rss, err := peakRSSMB(strconv.Itoa(pid))
		if err != nil {
			return res, fmt.Errorf("daemon peak RSS: %w", err)
		}
		res.metrics["wall_s"] = median(walls)
		res.metrics["cpu_s"] = median(cpus)
		res.metrics["setup_s"] = median(setups)
		res.metrics["peak_rss_mb"] = rss
		res.notes = append(res.notes, fmt.Sprintf("%d rounds of %d x %d KiB chunks over %d connections; %.1f%% of chunks spilled",
			len(walls), wireChunks, wireChunk>>10, wireConns, 100*float64(spilled)/float64(chunks)),
			fmt.Sprintf("%-34s %14.6g MB/s", "write_mb_s", median(writes)),
			fmt.Sprintf("%-34s %14.6g MB/s", "read_mb_s", median(reads)))
		return res, nil
	}
	var layer wireLayer
	rec := newOpRecorder()
	profPath := profilePath(o.outDir, o.workload, o.seed)
	tracedWalls, err := layer.tracedRounds(rig, wireWarmup+len(walls), window, pl, rec, profPath, &res)
	if err != nil {
		return res, err
	}
	m := zeroLayers()
	layer.fill(m, rec.lat)
	m["wire.write_mb_s"] = median(writes)
	m["wire.read_mb_s"] = median(reads)
	m["pool.spill_share"] = float64(spilled) / float64(chunks)
	m["wire.ops"] = float64(res.attempted)
	m["wire.ops_failed"] = float64(res.failed)
	m["error_rate"] = float64(res.failed) / float64(res.attempted)
	m["trace.overhead_ratio"] = median(tracedWalls) / median(walls)
	path, err := writeWireChrome(o.outDir, o.workload, o.seed, rec.spans)
	if err != nil {
		return res, err
	}
	res.notes = append(res.notes, fmt.Sprintf("%d untraced and %d traced rounds", len(walls), len(tracedWalls)),
		"trace written to "+path, "CPU profile written to "+profPath)
	res.notes = append(res.notes, traceFlags(m)...)
	res.metrics = m
	return res, nil
}

// wireLayer holds the traced rounds' layer figures: the daemon's request
// counters and CPU time, this process's CPU time and profile, and Go
// runtime allocation.
type wireLayer struct {
	serve     map[string]float64
	serveCPU  float64
	clientCPU float64
	cpu       map[string]float64
	alloc     runtime.MemStats
}

// tracedRounds runs rounds numbered from first for the window, with
// per-op latencies recorded, all under one CPU profile saved as
// profPath, between two scrapes of the daemon's metrics. The client CPU
// time is read inside the profiled interval, so the profile's samples
// and the CPU time they are reconciled with cover the same work. It
// counts the rounds' ops into res and returns their wall times.
func (l *wireLayer) tracedRounds(rig *wireRig, first int, window time.Duration, pl payloads, rec *opRecorder, profPath string, res *result) ([]float64, error) {
	pid := rig.h.Pid(1)
	before, err := scrape(rig.clients[0])
	if err != nil {
		return nil, err
	}
	srv0, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	cli0 := cpuSeconds()
	var walls []float64
	var rerr error
	start := time.Now()
	for n := first; n == first || time.Since(start) < window; n++ {
		st, err := rig.round(n, pl, rec)
		res.attempted += st.ops
		res.failed += st.failed
		if err != nil {
			res.failed++
			rerr = err
			break
		}
		walls = append(walls, st.wall.Seconds())
	}
	l.clientCPU = cpuSeconds() - cli0
	prof.stop()
	runtime.ReadMemStats(&m1)
	if rerr != nil {
		return nil, rerr
	}
	if l.cpu, err = prof.layers(profPath); err != nil {
		return nil, err
	}
	srv1, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	after, err := scrape(rig.clients[0])
	if err != nil {
		return nil, err
	}
	l.serve = map[string]float64{}
	for k, v := range after {
		l.serve[k] = v - before[k]
	}
	l.serveCPU = srv1 - srv0
	l.alloc = runtime.MemStats{
		TotalAlloc: m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:    m1.Mallocs - m0.Mallocs,
		NumGC:      m1.NumGC - m0.NumGC,
	}
	return walls, nil
}

// scrape reads the daemon's spongewire_* counters, summed over labels
// other than the op.
func scrape(c *wire.Client) (map[string]float64, error) {
	text, err := c.Metrics()
	if err != nil {
		return nil, fmt.Errorf("scraping the daemon: %w", err)
	}
	samples, err := obs.ParseText(text)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for id, v := range samples {
		switch {
		case strings.HasPrefix(id, "spongewire_requests_total{"):
			for _, op := range []string{"alloc_write", "read", "spill_loc", "pool_loc", "free"} {
				if strings.Contains(id, `op="`+op+`"`) {
					out["serve.requests."+op] += float64(v)
				}
			}
		case hasSeries(id, "spongewire_serve_zero_copy_bytes_total"):
			out["serve.zero_copy_mb"] += float64(v) / mb
		case hasSeries(id, "spongewire_serve_zero_copy_fallback_total"):
			out["serve.zero_copy_fallbacks"] += float64(v)
		case hasSeries(id, "spongewire_fdpass_fail_total"):
			out["serve.fdpass_fails"] += float64(v)
		}
	}
	return out, nil
}

// fill writes the accumulated layer figures and latency percentiles.
func (l *wireLayer) fill(m map[string]float64, lat map[string][]time.Duration) {
	for k, v := range l.serve {
		m[k] = v
	}
	m["serve.cpu_s"] = l.serveCPU
	m["client.cpu_s"] = l.clientCPU
	for k, v := range l.cpu {
		m[k] = v
	}
	cpuLayersDerived(m, l.clientCPU)
	m["runtime.alloc_mb"] = float64(l.alloc.TotalAlloc) / mb
	m["runtime.allocs"] = float64(l.alloc.Mallocs)
	m["runtime.gc_cycles"] = float64(l.alloc.NumGC)
	for name, ds := range lat {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = float64(d) / float64(time.Microsecond)
		}
		m["wire."+name+".p50_us"] = quantile(xs, 0.50)
		m["wire."+name+".p99_us"] = quantile(xs, 0.99)
	}
}

// writeWireChrome writes the first traced round's client ops as a Chrome
// trace-event file on the host timeline, one track per connection.
func writeWireChrome(dir, workload string, seed int64, spans []wireSpan) (string, error) {
	ev := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": workload + " round (host time)"}}}
	for c := 0; c < wireConns; c++ {
		ev = append(ev, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: c + 1, Args: map[string]any{"name": fmt.Sprintf("connection %d", c)}})
	}
	for _, s := range spans {
		ev = append(ev, chromeEvent{Name: s.name, Cat: "wire", Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3, Pid: 1, Tid: s.conn + 1})
	}
	return writeChromeFile(dir, workload, seed, ev, map[string]any{"workload": workload, "seed": seedLabel(seed), "clock": "host"})
}
