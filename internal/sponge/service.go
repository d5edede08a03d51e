package sponge

import (
	"fmt"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/obs"
	"spongefiles/internal/simtime"
)

// ServiceConfig tunes a cluster's sponge deployment.
type ServiceConfig struct {
	// ChunkVirtual is the fixed in-memory chunk size in virtual bytes.
	// The paper picks 1 MB to balance internal fragmentation against
	// per-chunk setup cost (§3.2).
	ChunkVirtual int64
	// PollInterval is how often the tracker polls sponge servers (§3.1.1
	// suggests every second); GCInterval is how often servers sweep for
	// orphaned chunks.
	PollInterval simtime.Duration
	GCInterval   simtime.Duration
	// AsyncWriteDepth and ReadAheadDepth are the two halves of the file
	// pipeline; a SpongeFile is written once and then read once, so the
	// windows never overlap and are tuned independently.
	//
	// AsyncWriteDepth bounds outstanding asynchronous chunk writes per
	// file — the write-side window (§3.1.2's double buffering is depth
	// 2). 0 disables async writes entirely: every spill is synchronous.
	AsyncWriteDepth int
	// Prefetch enables read-ahead of upcoming non-local chunks; the
	// window's depth is ReadAheadDepth.
	Prefetch bool
	// ReadAheadDepth bounds outstanding prefetch fetches per file — the
	// read-side window. Up to N chunk fetches cross the transport
	// concurrently (over the pipelined wire client they multiplex on one
	// cached connection per peer via request IDs), each filling one
	// recycled chunk buffer, and deliver strictly in order to the
	// sequential reader. 0 means the default (4); values below 1 are
	// clamped to 1. Depth 1 reproduces the seed's single-slot prefetcher
	// bit for bit — including its quirk of considering only the very next
	// chunk — and is the compat baseline the equivalence tests pin; depth
	// >= 2 additionally looks past non-prefetchable chunk kinds
	// (LocalMem/RemoteFS) instead of stalling the window behind them.
	ReadAheadDepth int
	// Affinity prefers remote servers the task already stores chunks on,
	// shrinking its failure surface (§3.1.1).
	Affinity bool
	// RackLocalOnly restricts remote spilling to the task's rack.
	RackLocalOnly bool
	// RemoteDisabled turns remote-memory allocation off entirely: files
	// go local memory → disk → remote FS (Figure 6's "local sponge
	// only" configuration).
	RemoteDisabled bool
	// QuotaChunksPerTask caps chunks per task per node; 0 = unlimited.
	QuotaChunksPerTask int
	// RetryLimit is how many times a lost exchange (ErrPeerUnreachable)
	// with one peer is retried before the peer is given up: the write
	// path blacklists the candidate, the read path reports the chunk
	// lost, the tracker records the server as having no free space. 0
	// means the default (2); negative disables retries. Application
	// errors — a full pool, a quota rejection — are never retried.
	RetryLimit int
	// RetryBackoff is the virtual time waited between retries of a lost
	// exchange; 0 means the default (20 ms). Only charged when a
	// transport fault actually occurs, so fault-free runs are unaffected.
	RetryBackoff simtime.Duration
	// LocalDiskEnabled allows the local-disk fallback; disable to force
	// the RemoteStore path in tests.
	LocalDiskEnabled bool
	// TrackerReplicas is how many warm standby trackers shadow the
	// leader. The leader hands its snapshot off to every standby each
	// poll cycle, so a failover promotes a standby and serves from the
	// handed-off state instead of cold-starting with a full re-poll. 0
	// (the default) reproduces the paper's single stateless tracker.
	TrackerReplicas int
	// DeltaDissemination replaces the 1/s full-cluster poll with
	// sequence-numbered incremental reports: each server pushes its free
	// count to the tracker leader only when it changed since the last
	// acked report, and the leader runs a full-snapshot anti-entropy
	// poll every AntiEntropyEvery cycles to reconcile anything the
	// deltas missed. Off by default — the full poll is the paper's
	// behaviour and the seed-golden baselines pin it.
	DeltaDissemination bool
	// AntiEntropyEvery is, under DeltaDissemination, how many poll
	// intervals pass between anti-entropy full polls; 0 means the
	// default (10).
	AntiEntropyEvery int
	// Remote is the distributed-filesystem last resort; may be nil.
	Remote RemoteStore
	// Metrics, when non-nil, is the registry the service instruments
	// itself into; nil means a private registry (always on — recording
	// costs no allocation, no virtual time, and no randomness, so
	// instrumented runs are bit-identical to uninstrumented ones).
	// Several services (or wire daemons) may share one registry: series
	// are get-or-create, so identically named counters aggregate.
	Metrics *obs.Registry
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() ServiceConfig {
	return ServiceConfig{
		ChunkVirtual:     1 * media.MB,
		PollInterval:     1 * simtime.Second,
		GCInterval:       30 * simtime.Second,
		AsyncWriteDepth:  2,
		Prefetch:         true,
		ReadAheadDepth:   4,
		Affinity:         true,
		RackLocalOnly:    true,
		LocalDiskEnabled: true,
	}
}

// Service is a running sponge deployment: one pool and server per node
// plus the tracker, with their daemons started on the cluster's
// simulation.
type Service struct {
	Cluster *cluster.Cluster
	Config  ServiceConfig
	Servers []*Server
	Tracker *Tracker

	chunkReal int
	nextPID   int64

	// transport carries every node-to-node exchange (allocation, reads,
	// frees, tracker polls, liveness checks). The default simTransport
	// calls peer Servers directly and charges virtual time; SetTransport
	// swaps in the wire adapter (real TCP) or a fault-injecting wrapper.
	transport Transport
	// peers caches one Peer handle per node so the per-chunk paths (the
	// readahead window above all) do not re-box a handle per exchange;
	// Peer handles are stateless by contract, so caching is safe. Reset
	// by SetTransport.
	peers []Peer

	// bufs recycles chunk payload buffers across every file of the
	// service (staging, async hand-off, fetch, prefetch).
	bufs *bufPool

	// memberState tracks each node's membership lifecycle (live,
	// leaving, dead, departed); memberEpoch bumps on every change.
	// forwards maps evacuated chunks to their new homes — nil until the
	// first planned leave, so static-membership reads pay one nil check.
	memberState []NodeState
	memberEpoch int64
	forwards    map[chunkAddr]chunkAddr

	// standbys are warm tracker replicas awaiting promotion (in leader
	// succession order); failovers counts tracker re-elections.
	standbys  []*Tracker
	failovers int

	// metrics holds the pre-registered observability handles the hot
	// paths mutate; always non-nil after Start.
	metrics *svcMetrics

	// OnQuotaViolation, when set, is invoked by the quota sweep with
	// each task found holding more than its per-node quota (§3.1.4's
	// corrective action — e.g. the engine kills the task).
	OnQuotaViolation func(TaskID)
}

// Start deploys sponge servers on every node of the cluster (pool size
// taken from the cluster's SpongeMemory carve-up) and the tracker on node
// 0, and begins their daemons. The tracker's first poll happens
// immediately so allocation works from virtual time zero.
func Start(c *cluster.Cluster, cfg ServiceConfig) *Service {
	if cfg.ChunkVirtual <= 0 {
		cfg.ChunkVirtual = 1 * media.MB
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = simtime.Second
	}
	if cfg.GCInterval <= 0 {
		cfg.GCInterval = 30 * simtime.Second
	}
	if cfg.RetryLimit == 0 {
		cfg.RetryLimit = 2
	} else if cfg.RetryLimit < 0 {
		cfg.RetryLimit = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 20 * simtime.Millisecond
	}
	if cfg.ReadAheadDepth == 0 {
		cfg.ReadAheadDepth = 4
	} else if cfg.ReadAheadDepth < 1 {
		cfg.ReadAheadDepth = 1
	}
	if cfg.AntiEntropyEvery <= 0 {
		cfg.AntiEntropyEvery = 10
	}
	s := &Service{
		Cluster:     c,
		Config:      cfg,
		chunkReal:   c.Cfg.R(cfg.ChunkVirtual),
		memberState: make([]NodeState, len(c.Nodes)),
	}
	s.transport = simTransport{s}
	s.peers = make([]Peer, len(c.Nodes))
	s.bufs = newBufPool(s.chunkReal)
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.metrics = newSvcMetrics(reg, simClock{c.Sim}, len(c.Nodes))
	chunksPerNode := int(c.Cfg.SpongeMemory / cfg.ChunkVirtual)
	for _, n := range c.Nodes {
		pool := NewPool(s.chunkReal, chunksPerNode)
		if cfg.QuotaChunksPerTask > 0 {
			pool.SetQuota(cfg.QuotaChunksPerTask)
		}
		srv := newServer(s, n, pool)
		s.Servers = append(s.Servers, srv)
		c.Sim.SpawnDaemon(fmt.Sprintf("spongegc@%s", n.Name()), srv.gcLoop)
	}
	s.metrics.registerGauges(s)
	s.Tracker = newTracker(s, c.Nodes[0])
	s.Tracker.leaderEpoch = 1
	s.metrics.trackerLeaderEpoch.Set(1)
	// The service is deployed long before any task runs; seed the
	// tracker's snapshot so allocation works from virtual time zero
	// instead of racing the first poll.
	for i, srv := range s.Servers {
		s.Tracker.snapshot[i] = srv.FreeChunks()
	}
	if cfg.TrackerReplicas > 0 {
		s.recruitStandbys()
	}
	if cfg.DeltaDissemination {
		for _, srv := range s.Servers {
			c.Sim.SpawnDaemon(fmt.Sprintf("spongedelta@%s", srv.node.Name()), srv.deltaReportLoop)
		}
	}
	c.Sim.SpawnDaemon("tracker", s.trackerLoop)
	c.Sim.SpawnDaemon("tracker.watchdog", s.watchdogLoop)
	return s
}

func (s *Service) hardware() media.Hardware { return s.Cluster.Cfg.Hardware }

// Transport returns the transport currently carrying the service's
// node-to-node exchanges (initially the direct-call simulated one).
func (s *Service) Transport() Transport { return s.transport }

// SetTransport installs a different transport — the wire adapter to run
// the allocator chain, tracker polling, GC liveness checks, and failover
// over real TCP, or a fault-injecting wrapper (NewFaultTransport) to
// exercise lost messages and partitions. Install before any task runs;
// in-flight operations on the old transport are not migrated.
func (s *Service) SetTransport(t Transport) {
	if t == nil {
		t = simTransport{s}
	}
	s.transport = t
	s.peers = make([]Peer, len(s.Cluster.Nodes))
	// Transports that can report into the registry (FaultTransport's
	// drop/partition counters, notably) are attached automatically.
	if a, ok := t.(metricsAttacher); ok {
		a.AttachMetrics(s.metrics.reg)
	}
}

// metricsAttacher is implemented by transports that export their own
// counters into a registry; SetTransport attaches them automatically.
type metricsAttacher interface {
	AttachMetrics(*obs.Registry)
}

// peer returns the transport's handle on a node's sponge server, cached
// per node for the life of the installed transport.
func (s *Service) peer(node int) Peer {
	if p := s.peers[node]; p != nil {
		return p
	}
	p := s.transport.Peer(node)
	s.peers[node] = p
	return p
}

// ChunkReal returns the real payload bytes per chunk.
func (s *Service) ChunkReal() int { return s.chunkReal }

// BufPoolStats snapshots the service's chunk-buffer pool counters; the
// recycling tests assert that Outstanding returns to zero once every
// file is deleted.
func (s *Service) BufPoolStats() BufPoolStats { return s.bufs.Stats() }

// getBuf checks a chunk-sized buffer out of the service pool.
func (s *Service) getBuf() []byte { return s.bufs.Get() }

// putBuf returns a buffer (possibly re-sliced shorter) to the pool.
func (s *Service) putBuf(b []byte) { s.bufs.Put(b) }

// TotalFreeChunks sums live free chunks across all servers (ground truth,
// not the tracker's stale view).
func (s *Service) TotalFreeChunks() int {
	total := 0
	for _, srv := range s.Servers {
		total += srv.FreeChunks()
	}
	return total
}

// Agent is a task's handle on the sponge service: it carries the task's
// identity and node, tracks which remote servers the task already uses
// (for affinity), and creates SpongeFiles.
type Agent struct {
	svc  *Service
	node *cluster.Node
	task TaskID

	// usedNodes is the set of remote nodes holding this task's chunks.
	usedNodes map[int]bool

	// UseLocalServerIPC routes local-chunk traffic through the sponge
	// server's socket interface instead of shared memory; the
	// microbenchmark's second column measures this path.
	UseLocalServerIPC bool

	// cipher, when non-nil, encrypts chunk payloads before they leave
	// the task and decrypts them on read-back (§3.1.4: in a cluster
	// without access control, "tasks can encrypt their chunks").
	cipher *chunkCipher

	// Totals across this task's files.
	BytesSpilled  int64
	ChunksSpilled int64
}

// NewAgent registers a new task (fresh PID) on the node and returns its
// agent.
func (s *Service) NewAgent(node *cluster.Node) *Agent {
	s.nextPID++
	t := TaskID{Node: node.ID, PID: s.nextPID}
	s.Servers[node.ID].RegisterTask(t.PID)
	return &Agent{
		svc:       s,
		node:      node,
		task:      t,
		usedNodes: make(map[int]bool),
	}
}

// Task returns the agent's task identity.
func (a *Agent) Task() TaskID { return a.task }

// Node returns the node the task runs on.
func (a *Agent) Node() *cluster.Node { return a.node }

// MachinesUsed reports how many distinct machines hold the task's data
// (the failure-surface metric of §4.3): its own node plus remote nodes
// it spilled to.
func (a *Agent) MachinesUsed() int { return 1 + len(a.usedNodes) }

// Close unregisters the task from its node's liveness registry. Files
// not deleted by then become orphans for the garbage collector.
func (a *Agent) Close() {
	a.svc.Servers[a.node.ID].UnregisterTask(a.task.PID)
}
