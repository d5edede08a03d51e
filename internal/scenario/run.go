package scenario

import (
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"time"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/obs"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
	"spongefiles/internal/sponge/wire"
)

// RunOptions configures a suite (or single-case) execution.
type RunOptions struct {
	// Exe is the binary re-executed as the child servers; empty means
	// os.Executable(). It must implement the `serve` subcommand.
	Exe string
	// Filter selects cases by name; nil runs every case.
	Filter *regexp.Regexp
	// QuickOnly restricts the run to cases marked Quick — the
	// check.sh/CI smoke subset.
	QuickOnly bool
	// Stderr receives the child servers' stderr (nil = discarded).
	Stderr io.Writer
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (o RunOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// RunContext is the live state one case's workload and fault schedule
// run against: the simulation, the simulated cluster and sponge
// service, the shared metrics registry, the fault-injecting transport
// wrapper, and the harness owning the child server processes.
type RunContext struct {
	Case    *Case
	Sim     *simtime.Sim
	Cluster *cluster.Cluster
	Svc     *sponge.Service
	Reg     *obs.Registry
	Faults  *sponge.FaultTransport
	Harness *Harness

	// phaseEvents holds the phase-anchored fault events, in schedule
	// order, keyed by phase name; Phase applies and consumes them.
	phaseEvents map[string][]FaultEvent

	// The workload verdict gauges: scenario_output_digest_match is 1
	// when the workload's output matched its expected digest, and
	// scenario_workload_ok is 1 when Run returned nil — so a case's
	// correctness claims are metric assertions like everything else.
	digestMatch *obs.Gauge
	workloadOK  *obs.Gauge

	faultErrs []string
}

// Phase marks the workload reaching a named boundary, applying every
// fault event anchored there, in schedule order.
func (rc *RunContext) Phase(p *simtime.Proc, name string) {
	events := rc.phaseEvents[name]
	delete(rc.phaseEvents, name)
	for _, ev := range events {
		rc.apply(p, ev)
	}
}

// SetDigestMatch records whether the workload's output matched its
// expected digest.
func (rc *RunContext) SetDigestMatch(ok bool) {
	if ok {
		rc.digestMatch.Set(1)
	} else {
		rc.digestMatch.Set(0)
	}
}

// apply executes one fault event. Kill events reach into the real
// world (SIGKILL of a child process); the rest drive the fault
// transport, the tracker, or the membership layer.
func (rc *RunContext) apply(p *simtime.Proc, ev FaultEvent) {
	fail := func(err error) {
		rc.faultErrs = append(rc.faultErrs, fmt.Sprintf("fault %s: %v", ev.Op, err))
	}
	switch ev.Op {
	case OpKillNode:
		if err := rc.Harness.KillNode(ev.Node); err != nil {
			fail(err)
		}
	case OpFailNode:
		// Kill the real process first, then acknowledge the failure at
		// the membership layer (epoch bump, peer revocation, chunk-loss
		// accounting) the way a detector would.
		if err := rc.Harness.KillNode(ev.Node); err != nil {
			fail(err)
		}
		rc.Svc.FailNode(ev.Node)
	case OpKillTracker:
		rc.Svc.FailTracker()
	case OpPartition:
		for _, a := range ev.A {
			for _, b := range ev.B {
				rc.Faults.Cut(a, b)
			}
		}
	case OpHeal:
		for _, a := range ev.A {
			for _, b := range ev.B {
				rc.Faults.Heal(a, b)
			}
		}
	case OpIsolate:
		rc.Faults.IsolateNode(ev.Node)
	case OpRejoin:
		rc.Faults.RejoinNode(ev.Node)
	case OpDropRate:
		rc.Faults.SetDropRate(ev.Rate)
	case OpLinkDrop:
		rc.Faults.SetLinkDrop(ev.Node, ev.Peer, ev.Rate)
	case OpRevokePeer:
		rc.Faults.RevokePeer(ev.Node)
	case OpJoinNode:
		rc.Svc.JoinNode()
	case OpLeaveNode:
		if err := rc.Svc.LeaveNode(p, ev.Node); err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("unknown op"))
	}
}

// RunCase executes one scenario end to end: spawn the child cluster,
// wire the simulated service onto it through the fault transport,
// schedule the fault events, run the workload, scrape the evidence
// (parent registry plus every live child), evaluate the assertions,
// and tear the children down gracefully.
func RunCase(cs Case, opts RunOptions) CaseReport {
	start := time.Now()
	rep := CaseReport{
		Name:      cs.Name,
		Desc:      cs.Desc,
		Evidence:  map[string]int64{},
		Artifacts: map[string]string{},
	}
	done := func() CaseReport {
		rep.DurationMs = float64(time.Since(start).Microseconds()) / 1000
		rep.Pass = len(rep.Failures) == 0
		return rep
	}
	failf := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
	}
	if err := cs.Validate(); err != nil {
		failf("%v", err)
		return done()
	}
	spec := cs.Spec.withDefaults()

	// The simulated half: node 0 runs the tasks and the tracker; nodes
	// 1..N are fronted by child processes.
	// The tiny local pool forces spills remote, through the children.
	cfg := cluster.PaperConfig()
	cfg.Workers = spec.Nodes + 1
	cfg.SpongeMemory = int64(spec.LocalChunks) * media.MB
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	reg := obs.NewRegistry()
	scfg := sponge.DefaultConfig()
	scfg.ReadAheadDepth = spec.ReadAhead
	scfg.TrackerReplicas = spec.TrackerReplicas
	scfg.DeltaDissemination = spec.Delta
	scfg.Metrics = reg
	svc := sponge.Start(c, scfg)

	var socketDir string
	if spec.UnixSockets {
		dir, err := os.MkdirTemp("", "spongesim-")
		if err != nil {
			failf("socket dir: %v", err)
			return done()
		}
		socketDir = dir
		defer os.RemoveAll(dir)
	}
	h, err := Spawn(HarnessOptions{
		Exe:        opts.Exe,
		Nodes:      spec.Nodes,
		ChunkBytes: svc.ChunkReal(),
		Chunks:     spec.PoolChunks,
		Wire:       wire.Options{LocalSocketDir: socketDir},
		Stderr:     opts.Stderr,
	})
	if err != nil {
		failf("spawn: %v", err)
		return done()
	}
	defer h.Stop()
	for node, addr := range h.Addrs() {
		rep.Artifacts[fmt.Sprintf("node%d", node)] = addr
	}

	faults := sponge.NewFaultTransport(
		wire.NewTransportOptions(h.Addrs(), svc.Transport(), wire.TransportOptions{
			SocketDir: socketDir,
			Metrics:   reg,
			NoFDPass:  spec.NoFDPass,
		}),
		sponge.FaultConfig{Seed: spec.Seed, DropRate: spec.DropRate, ErrRate: spec.ErrRate})
	// SetTransport attaches the fault counters to the service registry,
	// so sponge_fault_* evidence is always scrapeable.
	svc.SetTransport(faults)

	rc := &RunContext{
		Case:        &cs,
		Sim:         sim,
		Cluster:     c,
		Svc:         svc,
		Reg:         reg,
		Faults:      faults,
		Harness:     h,
		phaseEvents: map[string][]FaultEvent{},
		digestMatch: reg.Gauge("scenario_output_digest_match"),
		workloadOK:  reg.Gauge("scenario_workload_ok"),
	}
	var timed []FaultEvent
	// Delta dissemination pushes on the poll interval, so delta cases
	// must outlive at least one cycle to have evidence to assert on.
	needsSettle := spec.Delta
	for _, ev := range cs.Faults {
		if ev.Phase != "" {
			rc.phaseEvents[ev.Phase] = append(rc.phaseEvents[ev.Phase], ev)
		} else {
			timed = append(timed, ev)
		}
		if ev.Op == OpKillTracker || ev.Op == OpFailNode {
			needsSettle = true
		}
	}
	if len(timed) > 0 {
		sort.SliceStable(timed, func(i, j int) bool { return timed[i].At < timed[j].At })
		// A plain Spawn, not a daemon: the proc keeps the simulation
		// alive until the last event fires even if the workload finishes
		// earlier in virtual time.
		sim.Spawn("faultsched", func(p *simtime.Proc) {
			var now simtime.Duration
			for _, ev := range timed {
				p.Sleep(ev.At - now)
				now = ev.At
				rc.apply(p, ev)
			}
		})
	}
	var workloadErr error
	sim.Spawn("workload", func(p *simtime.Proc) {
		if cs.StartDelay > 0 {
			p.Sleep(cs.StartDelay)
		}
		workloadErr = cs.Workload.Run(rc, p)
		if workloadErr == nil {
			rc.workloadOK.Set(1)
		}
		if needsSettle {
			// Outlive the watchdog's next check so a tracker failover
			// (or membership convergence) completes before the scrape.
			p.Sleep(2 * svc.Config.PollInterval)
		}
	})
	if err := runSim(sim); err != nil {
		failf("simulation: %v", err)
	}
	if workloadErr != nil {
		failf("workload: %v", workloadErr)
	}
	for _, msg := range rc.faultErrs {
		failf("%s", msg)
	}

	// Evidence: the parent registry (sponge_*, mr_*, scenario_*) merged
	// with every live child's wire scrape (spongewire_*) — the producers
	// keep the prefixes disjoint, so the merge only ever sums a series
	// with a same-named series from another child.
	parent, err := obs.ParseText(reg.Text())
	if err != nil {
		failf("parent scrape: %v", err)
		return done()
	}
	scrapes := []map[string]int64{parent}
	for _, ns := range h.Scrape() {
		scrapes = append(scrapes, ns.Samples)
	}
	merged := obs.MergeSamples(scrapes...)
	for _, a := range cs.Assert {
		v, ok := merged[a.Metric]
		if !ok {
			failf("assert %s: metric not present in scrape", a)
			continue
		}
		rep.Evidence[a.Metric] = v
		if !a.Eval(v) {
			failf("assert %s: got %d", a, v)
		}
	}
	return done()
}

// runSim runs the simulation to completion, converting a deadlock (or
// any other simulator panic) into an error instead of taking the whole
// suite down.
func runSim(sim *simtime.Sim) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	_, err = sim.Run()
	return err
}

// RunSuite executes every case matching the options' filter and
// assembles the suite report.
func RunSuite(suite Suite, opts RunOptions) Report {
	start := time.Now()
	rep := Report{Suite: suite.Name, Started: start.UTC().Format(time.RFC3339)}
	for _, cs := range suite.Cases {
		if opts.Filter != nil && !opts.Filter.MatchString(cs.Name) {
			continue
		}
		if opts.QuickOnly && !cs.Quick {
			continue
		}
		opts.logf("=== RUN  %s\n", cs.Name)
		cr := RunCase(cs, opts)
		if cr.Pass {
			rep.Passed++
			opts.logf("--- PASS %s (%.0f ms)\n", cs.Name, cr.DurationMs)
		} else {
			rep.Failed++
			opts.logf("--- FAIL %s (%.0f ms)\n", cs.Name, cr.DurationMs)
			for _, f := range cr.Failures {
				opts.logf("    %s\n", f)
			}
		}
		rep.Cases = append(rep.Cases, cr)
	}
	rep.DurationMs = float64(time.Since(start).Microseconds()) / 1000
	return rep
}
