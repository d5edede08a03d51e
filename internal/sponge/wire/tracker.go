package wire

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"spongefiles/internal/obs"
)

// Tracker is the memory tracking server over real TCP: it periodically
// polls a set of sponge servers (via their Stat operation) and answers
// free-list queries from its in-memory snapshot, exactly like the
// simulated tracker but against live daemons. It is stateless — restart
// it anywhere and the first poll rebuilds its view (§3.1.1).
//
// The tracker keeps one pipelined client per server across polls
// instead of dialing anew each cycle; a poll is a single Stat round
// trip. A failed poll drops the cached connection, and the next cycle
// re-dials.
//
// A tracker optionally runs replicated. The leader polls (or, under
// TrackerOptions.Delta, accepts OpFreeDelta pushes with a periodic
// anti-entropy poll) and hands its snapshot off to every standby each
// cycle over OpTrackerState. A standby serves queries from the pushed
// snapshot and promotes itself — bumping the leader epoch — when no
// handoff arrives within the lease, so a dead leader's place is taken
// warm: the new leader answers from the last handed-off state instead
// of an empty map.
type Tracker struct {
	interval time.Duration
	opts     TrackerOptions

	mu       sync.Mutex
	addrs    []string
	free     map[string]int
	seq      map[string]uint64 // per-server acked delta sequence
	lastErr  map[string]error
	clients  map[string]*Client
	standbyC map[string]*Client // cached handoff connections

	epoch    uint64    // leadership term, bumped by every promotion
	leader   bool      // false while standing by
	lastPush time.Time // standby: when state last arrived from the leader

	deltaApplied, deltaStale int64
	handoffs, handoffErrs    int64
	promotions               int64

	stop chan struct{}
	done chan struct{}
}

// TrackerOptions tunes a tracker's dissemination and replication.
// The zero value is the classic standalone polling tracker.
type TrackerOptions struct {
	// Interval is the poll (leader) and lease-check (standby) period;
	// 0 means 1s.
	Interval time.Duration
	// Delta switches free-space dissemination to server-pushed
	// OpFreeDelta reports: the leader polls only every AntiEntropy
	// cycles to repair what pushes missed, instead of every cycle.
	Delta bool
	// AntiEntropy is the full-poll period in cycles under Delta;
	// 0 means 10.
	AntiEntropy int
	// Standbys lists the tracker addresses this leader hands its
	// snapshot to each cycle.
	Standbys []string
	// Standby starts the tracker as a follower: it never polls, serves
	// queries from pushed state, and promotes itself when the lease
	// expires.
	Standby bool
	// Lease is how long a standby waits without a state push before
	// promoting itself; 0 means 3×Interval.
	Lease time.Duration
	// Epoch seeds the leadership term (a promotion always bumps past
	// the epoch of the state it inherited, so explicit seeding is only
	// needed for tests and restarts).
	Epoch uint64
}

// NewTracker creates a tracker polling the given sponge-server addresses
// every interval, and starts its poll loop. The first poll happens
// synchronously so Query is immediately useful.
func NewTracker(addrs []string, interval time.Duration) *Tracker {
	return NewTrackerOptions(addrs, TrackerOptions{Interval: interval})
}

// NewTrackerOptions creates a tracker with explicit dissemination and
// replication tuning. A leader's first poll happens synchronously so
// Query is immediately useful; a standby starts empty and waits for
// the leader's first handoff.
func NewTrackerOptions(addrs []string, opts TrackerOptions) *Tracker {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.AntiEntropy <= 0 {
		opts.AntiEntropy = 10
	}
	if opts.Lease <= 0 {
		opts.Lease = 3 * opts.Interval
	}
	t := &Tracker{
		interval: opts.Interval,
		opts:     opts,
		addrs:    append([]string(nil), addrs...),
		free:     make(map[string]int),
		seq:      make(map[string]uint64),
		lastErr:  make(map[string]error),
		clients:  make(map[string]*Client),
		standbyC: make(map[string]*Client),
		epoch:    opts.Epoch,
		leader:   !opts.Standby,
		lastPush: time.Now(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if t.leader {
		if t.epoch == 0 {
			t.epoch = 1
		}
		t.pollOnce()
	}
	go t.loop()
	return t
}

// Close stops the poll loop and drops the cached connections.
func (t *Tracker) Close() {
	close(t.stop)
	<-t.done
	t.mu.Lock()
	clients := t.clients
	standbys := t.standbyC
	t.clients = make(map[string]*Client)
	t.standbyC = make(map[string]*Client)
	t.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	for _, c := range standbys {
		c.Close()
	}
}

func (t *Tracker) loop() {
	defer close(t.done)
	ticker := time.NewTicker(t.interval)
	defer ticker.Stop()
	cycle := 0
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
			if !t.IsLeader() {
				t.checkLease()
				continue
			}
			cycle++
			if !t.opts.Delta || cycle%t.opts.AntiEntropy == 0 {
				t.pollOnce()
			}
			t.handoff()
		}
	}
}

// checkLease promotes a standby whose leader has gone quiet for longer
// than the lease. The promotion is warm: the inherited snapshot serves
// queries immediately, and the next cycle resumes polling (or delta
// anti-entropy) under a bumped epoch. Delta reporters discover the new
// leader by rotation — the old address refuses, this one now applies.
func (t *Tracker) checkLease() {
	t.mu.Lock()
	if t.leader || time.Since(t.lastPush) <= t.opts.Lease {
		t.mu.Unlock()
		return
	}
	t.leader = true
	t.epoch++
	t.promotions++
	t.mu.Unlock()
}

func (t *Tracker) pollOnce() {
	t.mu.Lock()
	addrs := append([]string(nil), t.addrs...)
	t.mu.Unlock()
	for _, addr := range addrs {
		free, err := t.statAddr(addr)
		t.mu.Lock()
		if err != nil {
			t.lastErr[addr] = err
			t.free[addr] = 0
		} else {
			delete(t.lastErr, addr)
			t.free[addr] = free
		}
		t.mu.Unlock()
	}
}

// statAddr stats one server over its cached connection, dialing on the
// first poll (or after a failure dropped the old connection).
func (t *Tracker) statAddr(addr string) (int, error) {
	t.mu.Lock()
	c := t.clients[addr]
	t.mu.Unlock()
	if c == nil {
		var err error
		c, err = Dial(addr)
		if err != nil {
			return 0, err
		}
		t.mu.Lock()
		t.clients[addr] = c
		t.mu.Unlock()
	}
	free, _, _, err := c.Stat()
	if err != nil {
		t.mu.Lock()
		delete(t.clients, addr)
		t.mu.Unlock()
		c.Close()
		return 0, err
	}
	return free, nil
}

// IsLeader reports whether this tracker currently leads its group (a
// standalone tracker always leads).
func (t *Tracker) IsLeader() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.leader
}

// Epoch returns the leadership term this tracker is serving under.
func (t *Tracker) Epoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// Promotions returns how many times this tracker promoted itself from
// standby to leader.
func (t *Tracker) Promotions() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.promotions
}

// DeltaStats returns (applied, stale) counts of pushed free-space
// reports.
func (t *Tracker) DeltaStats() (applied, stale int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deltaApplied, t.deltaStale
}

// HandoffStats returns (completed, failed) standby state pushes.
func (t *Tracker) HandoffStats() (ok, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handoffs, t.handoffErrs
}

// applyDelta installs one pushed free-space report. It returns
// applied=false for a report at or below the server's acked sequence
// (a retry or reordering — the snapshot already reflects newer truth)
// and ok=false when this tracker is not the leader, which the wire
// layer answers as StatusBadRequest so the reporter rotates onward.
func (t *Tracker) applyDelta(addr string, seq uint64, free int) (applied, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.leader {
		return false, false
	}
	if seq <= t.seq[addr] {
		t.deltaStale++
		return false, true
	}
	t.seq[addr] = seq
	t.free[addr] = free
	delete(t.lastErr, addr)
	t.deltaApplied++
	return true, true
}

// applyState installs a leader's handed-off snapshot on a standby. A
// leader refuses (it follows nobody — the refusal tells a stale
// ex-leader its term is over), as does a push from an older epoch.
func (t *Tracker) applyState(epoch uint64, entries []TrackerStateEntry) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.leader || epoch < t.epoch {
		return false
	}
	free := make(map[string]int, len(entries))
	seq := make(map[string]uint64, len(entries))
	for _, e := range entries {
		free[e.Addr] = e.Free
		seq[e.Addr] = e.Seq
	}
	t.epoch = epoch
	t.free = free
	t.seq = seq
	t.lastPush = time.Now()
	return true
}

// snapshotState captures the handoff payload under the lock.
func (t *Tracker) snapshotState() (uint64, []TrackerStateEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	entries := make([]TrackerStateEntry, 0, len(t.free))
	for addr, free := range t.free {
		entries = append(entries, TrackerStateEntry{Addr: addr, Free: free, Seq: t.seq[addr]})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Addr < entries[j].Addr })
	return t.epoch, entries
}

// handoff pushes the leader's snapshot to every configured standby over
// cached connections; a failed push drops the connection and the next
// cycle re-dials, so a standby restart heals without intervention.
func (t *Tracker) handoff() {
	if len(t.opts.Standbys) == 0 {
		return
	}
	epoch, entries := t.snapshotState()
	for _, addr := range t.opts.Standbys {
		t.mu.Lock()
		c := t.standbyC[addr]
		t.mu.Unlock()
		if c == nil {
			var err error
			c, err = Dial(addr)
			if err != nil {
				t.mu.Lock()
				t.handoffErrs++
				t.mu.Unlock()
				continue
			}
			t.mu.Lock()
			t.standbyC[addr] = c
			t.mu.Unlock()
		}
		err := c.PushTrackerState(epoch, entries)
		t.mu.Lock()
		if err != nil {
			t.handoffErrs++
			delete(t.standbyC, addr)
		} else {
			t.handoffs++
		}
		t.mu.Unlock()
		if err != nil {
			c.Close()
		}
	}
}

// TrackerEntry is one row of the tracker's answer.
type TrackerEntry struct {
	Addr string
	Free int
}

// Query returns servers that had free chunks at the last poll, most
// free first. The answer can be stale by up to the poll interval.
func (t *Tracker) Query() []TrackerEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []TrackerEntry
	for addr, free := range t.free {
		if free > 0 {
			out = append(out, TrackerEntry{Addr: addr, Free: free})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Free != out[j].Free {
			return out[i].Free > out[j].Free
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// totalFree sums the last-polled free chunks across all servers.
func (t *Tracker) totalFree() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := 0
	for _, free := range t.free {
		sum += free
	}
	return sum
}

// TrackerServer exposes a tracker over the wire protocol, so remote
// tasks query the free list with the same framed TCP exchanges they use
// against sponge servers. It answers OpFreeList with the snapshot,
// OpStat with the aggregate free count (total and chunk size are
// reported as 0: the tracker serves no chunks itself), OpFreeDelta with
// the leader's applied verdict, OpTrackerState with a standby's
// acceptance, and OpTrackerInfo with the epoch and role; every other op
// gets StatusBadRequest.
type TrackerServer struct {
	t *Tracker
	d *daemon
}

// Serve starts serving the tracker's free list on addr.
func (t *Tracker) Serve(addr string, opts Options) (*TrackerServer, error) {
	ts := &TrackerServer{t: t}
	d, err := startDaemon(addr, opts, handshakeLimit, ts.helloResponse, ts.dispatch)
	if err != nil {
		return nil, err
	}
	ts.d = d
	// Replication state rides along in the scrape, labeled by listen
	// address like the daemon's own series.
	listen := obs.L("listen", d.addr())
	d.metrics.GaugeFunc("spongewire_tracker_epoch", func() int64 { return int64(t.Epoch()) }, listen)
	d.metrics.GaugeFunc("spongewire_tracker_leader", func() int64 {
		if t.IsLeader() {
			return 1
		}
		return 0
	}, listen)
	return ts, nil
}

// Addr returns the listening address.
func (ts *TrackerServer) Addr() string { return ts.d.addr() }

// Close stops the listener and its connections (the tracker itself
// keeps polling; close it separately).
func (ts *TrackerServer) Close() error { return ts.d.close() }

func (ts *TrackerServer) helloResponse() []byte {
	out := make([]byte, helloRespLen)
	out[0] = StatusOK
	out[1] = ProtocolV2
	binary.LittleEndian.PutUint32(out[2:6], uint32(ts.t.totalFree()))
	return out
}

func (ts *TrackerServer) dispatch(req []byte) ([]byte, fileRef) {
	if len(req) < 1 {
		return []byte{StatusBadRequest}, fileRef{}
	}
	switch req[0] {
	case OpStat:
		out := make([]byte, 13)
		out[0] = StatusOK
		binary.LittleEndian.PutUint32(out[1:5], uint32(ts.t.totalFree()))
		return out, fileRef{}
	case OpFreeList:
		entries := ts.t.Query()
		out := make([]byte, 3, 3+len(entries)*16)
		out[0] = StatusOK
		binary.LittleEndian.PutUint16(out[1:3], uint16(len(entries)))
		for _, e := range entries {
			var fixed [6]byte
			binary.LittleEndian.PutUint32(fixed[0:4], uint32(e.Free))
			binary.LittleEndian.PutUint16(fixed[4:6], uint16(len(e.Addr)))
			out = append(out, fixed[:]...)
			out = append(out, e.Addr...)
		}
		return out, fileRef{}
	case OpFreeDelta:
		payload := req[1:]
		if len(payload) < 14 {
			return []byte{StatusBadRequest}, fileRef{}
		}
		seq := binary.LittleEndian.Uint64(payload[0:8])
		free := int(binary.LittleEndian.Uint32(payload[8:12]))
		alen := int(binary.LittleEndian.Uint16(payload[12:14]))
		if len(payload) != 14+alen {
			return []byte{StatusBadRequest}, fileRef{}
		}
		applied, ok := ts.t.applyDelta(string(payload[14:14+alen]), seq, free)
		if !ok {
			// Not the leader: the reporter rotates to the next tracker.
			return []byte{StatusBadRequest}, fileRef{}
		}
		a := byte(0)
		if applied {
			a = 1
		}
		return []byte{StatusOK, a}, fileRef{}
	case OpTrackerState:
		payload := req[1:]
		if len(payload) < 10 {
			return []byte{StatusBadRequest}, fileRef{}
		}
		epoch := binary.LittleEndian.Uint64(payload[0:8])
		count := int(binary.LittleEndian.Uint16(payload[8:10]))
		payload = payload[10:]
		entries := make([]TrackerStateEntry, 0, count)
		for i := 0; i < count; i++ {
			if len(payload) < 14 {
				return []byte{StatusBadRequest}, fileRef{}
			}
			free := int(binary.LittleEndian.Uint32(payload[0:4]))
			seq := binary.LittleEndian.Uint64(payload[4:12])
			alen := int(binary.LittleEndian.Uint16(payload[12:14]))
			payload = payload[14:]
			if len(payload) < alen {
				return []byte{StatusBadRequest}, fileRef{}
			}
			entries = append(entries, TrackerStateEntry{Addr: string(payload[:alen]), Free: free, Seq: seq})
			payload = payload[alen:]
		}
		if !ts.t.applyState(epoch, entries) {
			// A leader (or a standby ahead of this epoch) follows nobody.
			return []byte{StatusBadRequest}, fileRef{}
		}
		return []byte{StatusOK}, fileRef{}
	case OpTrackerInfo:
		out := make([]byte, 10)
		out[0] = StatusOK
		binary.LittleEndian.PutUint64(out[1:9], ts.t.Epoch())
		if ts.t.IsLeader() {
			out[9] = 1
		}
		return out, fileRef{}
	}
	return []byte{StatusBadRequest}, fileRef{}
}

// FreeList queries a TCP-served tracker for its latest free list, most
// free first, pipelined like any other request.
func (c *Client) FreeList() ([]TrackerEntry, error) {
	rep, err := c.do([]byte{OpFreeList}, nil, nil)
	if err != nil {
		return nil, err
	}
	body := rep.body
	if len(body) < 2 {
		return nil, fmt.Errorf("wire: bad free-list response")
	}
	count := int(binary.LittleEndian.Uint16(body[0:2]))
	body = body[2:]
	out := make([]TrackerEntry, 0, count)
	for i := 0; i < count; i++ {
		if len(body) < 6 {
			return nil, fmt.Errorf("wire: truncated free-list response")
		}
		free := int(binary.LittleEndian.Uint32(body[0:4]))
		alen := int(binary.LittleEndian.Uint16(body[4:6]))
		body = body[6:]
		if len(body) < alen {
			return nil, fmt.Errorf("wire: truncated free-list response")
		}
		out = append(out, TrackerEntry{Addr: string(body[:alen]), Free: free})
		body = body[alen:]
	}
	return out, nil
}

// TrackerStateEntry is one row of a leader-to-standby state handoff:
// a server's free count and the delta sequence the leader has acked
// from it, so the standby resumes deduplication where the leader left
// off.
type TrackerStateEntry struct {
	Addr string
	Free int
	Seq  uint64
}

// ReportDelta pushes one sequence-numbered free-space report to a
// tracker. It returns whether the tracker applied it (false means the
// sequence was stale — already superseded — which is not an error).
// A standby tracker answers ErrBadRequest: the caller should rotate to
// the next tracker address to find the leader.
func (c *Client) ReportDelta(addr string, seq uint64, free int) (bool, error) {
	head := make([]byte, 15, 15+len(addr))
	head[0] = OpFreeDelta
	binary.LittleEndian.PutUint64(head[1:9], seq)
	binary.LittleEndian.PutUint32(head[9:13], uint32(free))
	binary.LittleEndian.PutUint16(head[13:15], uint16(len(addr)))
	head = append(head, addr...)
	rep, err := c.do(head, nil, nil)
	if err != nil {
		return false, err
	}
	return len(rep.body) == 1 && rep.body[0] == 1, nil
}

// PushTrackerState hands a leader's snapshot off to a standby tracker.
// A leader on the receiving end answers ErrBadRequest — the signal to
// a stale ex-leader that its term is over.
func (c *Client) PushTrackerState(epoch uint64, entries []TrackerStateEntry) error {
	body := make([]byte, 11, 11+len(entries)*20)
	body[0] = OpTrackerState
	binary.LittleEndian.PutUint64(body[1:9], epoch)
	binary.LittleEndian.PutUint16(body[9:11], uint16(len(entries)))
	for _, e := range entries {
		var fixed [14]byte
		binary.LittleEndian.PutUint32(fixed[0:4], uint32(e.Free))
		binary.LittleEndian.PutUint64(fixed[4:12], e.Seq)
		binary.LittleEndian.PutUint16(fixed[12:14], uint16(len(e.Addr)))
		body = append(body, fixed[:]...)
		body = append(body, e.Addr...)
	}
	_, err := c.do(body, nil, nil)
	return err
}

// TrackerInfo asks a tracker for its leadership term and role. Any
// non-tracker daemon answers ErrBadRequest.
func (c *Client) TrackerInfo() (epoch uint64, leader bool, err error) {
	rep, err := c.do([]byte{OpTrackerInfo}, nil, nil)
	if err != nil {
		return 0, false, err
	}
	if len(rep.body) != 9 {
		return 0, false, fmt.Errorf("wire: bad tracker-info response")
	}
	return binary.LittleEndian.Uint64(rep.body[0:8]), rep.body[8] == 1, nil
}

// Unreachable returns the addresses whose last poll failed.
func (t *Tracker) Unreachable() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for addr := range t.lastErr {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}
