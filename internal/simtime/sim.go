// Package simtime implements a deterministic discrete-event simulator.
//
// The simulator runs "processes" (goroutines that execute one at a time,
// interleaved only at explicit blocking points) against a virtual clock.
// It is the substrate on which the cluster, disk, network, and memory
// models in this repository charge time: engines move real bytes, but
// every I/O and CPU charge advances the virtual clock instead of the wall
// clock. Runs are fully deterministic: events are ordered by (time,
// sequence number), and exactly one process is runnable at any instant.
package simtime

import (
	"fmt"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is convertible to
// and from time.Duration; a separate type keeps virtual and wall time from
// being mixed accidentally.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Std converts a virtual duration to a time.Duration for formatting.
func (d Duration) Std() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// Seconds returns the time as a floating-point number of seconds since the
// simulation epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled resumption of a process or invocation of a callback.
// Events are stored by value in the queue: the hot path of the simulator is
// scheduling (every Sleep, every device charge), and boxing each event
// behind a pointer — as the original container/heap queue did — made the
// scheduler the single largest allocation site in the macro benchmarks.
type event struct {
	at      Time
	seq     uint64
	proc    *Proc  // non-nil: resume this process
	procGen uint64 // incarnation of proc this event targets (proc reuse)
	fn      func() // non-nil: run this callback in scheduler context
	daemon  bool   // event belongs to a daemon process
}

// before orders events by (time, sequence number); the sequence tiebreak
// keeps same-instant events in schedule order, which the determinism
// guarantee depends on.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a typed binary min-heap of events stored by value. Push
// and pop reuse the slice's capacity, so the steady state allocates
// nothing; a popped slot is zeroed to drop fn/proc references.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.ev[i].before(&q.ev[parent]) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{}
	q.ev = q.ev[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.ev[l].before(&q.ev[min]) {
			min = l
		}
		if r < n && q.ev[r].before(&q.ev[min]) {
			min = r
		}
		if min == i {
			break
		}
		q.ev[i], q.ev[min] = q.ev[min], q.ev[i]
		i = min
	}
	return top
}

// maxProcFree bounds the pool of finished processes kept for reuse. Every
// asynchronous chunk spill spawns a writer process; recycling the Proc,
// its resume channel, and its goroutine keeps steady-state spawning
// allocation-free. Beyond the bound, finished goroutines simply exit.
const maxProcFree = 256

// Sim is a discrete-event simulation instance. It is not safe for use from
// multiple OS threads except through the process mechanism it provides.
type Sim struct {
	now    Time
	events eventQueue
	seq    uint64
	yield  chan struct{} // handshake: running proc -> scheduler
	procs  map[*Proc]struct{}
	nextID uint64
	// pending counts scheduled non-daemon events; parkedUser counts
	// parked non-daemon processes. Run halts when only daemon activity
	// remains (daemons typically loop forever and would otherwise keep
	// the clock advancing unboundedly).
	pending    int
	parkedUser int

	// procFree holds finished processes whose goroutines are parked
	// awaiting reuse by the next Spawn.
	procFree []*Proc

	// Stats.
	spawns, procReuses int64
}

// New returns a fresh simulation with the clock at zero and no processes.
func New() *Sim {
	return &Sim{
		yield: make(chan struct{}),
		procs: make(map[*Proc]struct{}),
	}
}

// ProcStats returns (total Spawn calls, spawns satisfied by proc reuse).
func (s *Sim) ProcStats() (spawns, reuses int64) { return s.spawns, s.procReuses }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// schedule enqueues an event.
func (s *Sim) schedule(at Time, p *Proc, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	daemon := p != nil && p.daemon
	if !daemon {
		s.pending++
	}
	var gen uint64
	if p != nil {
		gen = p.gen
	}
	s.events.push(event{at: at, seq: s.seq, proc: p, procGen: gen, fn: fn, daemon: daemon})
}

// After schedules fn to run in scheduler context after d elapses. fn must
// not block; it may spawn processes or wake waiters.
func (s *Sim) After(d Duration, fn func()) {
	s.schedule(s.now.Add(d), nil, fn)
}

// procState describes where a process is in its lifecycle.
type procState int

const (
	stateNew procState = iota
	stateRunnable
	stateRunning
	stateParked // waiting on a resource or signal, no scheduled event
	stateDone
)

// Proc is a simulated process. All methods must be called from the
// process's own goroutine while it is running.
type Proc struct {
	sim    *Sim
	id     uint64
	name   string
	resume chan struct{}
	state  procState
	daemon bool
	killed bool
	// parkedOn describes what a parked proc is waiting for (diagnostics).
	parkedOn string
	// fn is the body the goroutine runs on its next resumption; gen
	// counts incarnations so events scheduled for a finished life cannot
	// resume a reused Proc.
	fn  func(p *Proc)
	gen uint64
}

// interrupted is the sentinel panic payload used to unwind a killed process.
type interrupted struct{ reason string }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Spawn creates a process running fn and schedules it to start now. The
// name is used in diagnostics only. Finished processes (Proc, resume
// channel, goroutine) are reused by later Spawns, so steady-state
// spawning — e.g. one writer process per spilled chunk — allocates
// nothing.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	s.nextID++
	s.spawns++
	var p *Proc
	if n := len(s.procFree); n > 0 {
		p = s.procFree[n-1]
		s.procFree[n-1] = nil
		s.procFree = s.procFree[:n-1]
		p.id = s.nextID
		p.name = name
		p.daemon = false
		p.killed = false
		p.parkedOn = ""
		p.gen++
		p.fn = fn
		s.procReuses++
	} else {
		p = &Proc{
			sim:    s,
			id:     s.nextID,
			name:   name,
			resume: make(chan struct{}),
			state:  stateNew,
			fn:     fn,
		}
		go p.loop()
	}
	s.procs[p] = struct{}{}
	p.state = stateRunnable
	s.schedule(s.now, p, nil)
	return p
}

// loop is the body of a process goroutine: run one life, park the Proc
// for reuse, wait for the next Spawn to re-arm it. Only one of the
// scheduler and the running process executes at a time, so procFree and
// the Proc fields are handed over race-free through the yield/resume
// channel pair.
func (p *Proc) loop() {
	s := p.sim
	for {
		<-p.resume // wait for first scheduling of this life
		p.runLife()
		recycle := len(s.procFree) < maxProcFree
		if recycle {
			s.procFree = append(s.procFree, p)
		}
		s.yield <- struct{}{}
		if !recycle {
			return
		}
	}
}

// runLife executes the process body, unwinding cleanly when killed.
func (p *Proc) runLife() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(interrupted); !ok {
				// Re-panic on the scheduler's goroutine would lose the
				// stack; report and crash here instead.
				panic(r)
			}
		}
		p.state = stateDone
		p.fn = nil
		delete(p.sim.procs, p)
	}()
	p.state = stateRunning
	p.fn(p)
}

// SpawnDaemon is Spawn for background service processes (flushers,
// trackers, garbage collectors). Daemons may still be parked when the
// event queue drains; Run does not treat that as deadlock.
func (s *Sim) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	p := s.Spawn(name, fn)
	p.daemon = true
	return p
}

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.sim.schedule(p.sim.now.Add(d), p, nil)
	p.state = stateRunnable
	p.switchOut()
}

// Yield reschedules the process at the current time, letting other
// processes scheduled for this instant run first.
func (p *Proc) Yield() { p.Sleep(0) }

// park blocks the process with no scheduled wakeup; some other process or
// callback must call unpark.
func (p *Proc) park(what string) {
	p.state = stateParked
	p.parkedOn = what
	if !p.daemon {
		p.sim.parkedUser++
	}
	p.switchOut()
}

// unpark schedules a parked process to resume at the current time.
func (p *Proc) unpark() {
	if p.state != stateParked {
		panic(fmt.Sprintf("simtime: unpark of non-parked proc %q", p.name))
	}
	p.state = stateRunnable
	p.parkedOn = ""
	if !p.daemon {
		p.sim.parkedUser--
	}
	p.sim.schedule(p.sim.now, p, nil)
}

// switchOut hands control to the scheduler and blocks until resumed.
func (p *Proc) switchOut() {
	p.sim.yield <- struct{}{}
	<-p.resume
	p.state = stateRunning
	if p.killed {
		p.killed = false
		panic(interrupted{reason: "killed"})
	}
}

// Kill marks the process so that it unwinds (via an internal panic that
// Spawn recovers) the next time it would resume. Killing a running or
// done process is a no-op. Resources held by the process are not
// released; Kill is intended for processes blocked in Sleep or on
// primitives whose state the caller owns.
func (p *Proc) Kill() {
	switch p.state {
	case stateDone, stateRunning:
		return
	case stateParked:
		p.killed = true
		p.unpark()
	default:
		p.killed = true
	}
}

// Run executes the simulation until the event queue is exhausted or only
// daemon activity remains (daemon service loops would otherwise advance
// the clock forever). It returns the final virtual time. If non-daemon
// processes remain parked with nothing left to wake them, Run returns an
// error describing the deadlock.
func (s *Sim) Run() (Time, error) {
	for s.events.len() > 0 && (s.pending > 0 || s.parkedUser > 0) {
		e := s.events.pop()
		if !e.daemon {
			s.pending--
		}
		if e.at > s.now {
			s.now = e.at
		}
		switch {
		case e.fn != nil:
			e.fn()
		case e.proc != nil:
			if e.proc.state == stateDone || e.proc.gen != e.procGen {
				// Stale event: the process finished (and possibly began a
				// new life via reuse) after this was scheduled.
				continue
			}
			e.proc.resume <- struct{}{}
			<-s.yield
		}
	}
	var stuck []string
	for p := range s.procs {
		if p.state == stateParked && !p.daemon {
			stuck = append(stuck, fmt.Sprintf("%s (waiting on %s)", p.name, p.parkedOn))
		}
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return s.now, fmt.Errorf("simtime: deadlock, %d process(es) parked: %v", len(stuck), stuck)
	}
	return s.now, nil
}

// MustRun is Run but panics on deadlock; for tests and examples.
func (s *Sim) MustRun() Time {
	t, err := s.Run()
	if err != nil {
		panic(err)
	}
	return t
}
