// Package mpi implements the two-sided message-passing baseline the
// thesis compares against (OpenMPI + Fortran NAS FT): blocking send/recv
// with eager and rendezvous protocols over the same simulated fabric,
// barriers, reductions, and an all-to-all collective with both the naive
// pairwise algorithm and the hierarchical (node-leader) algorithm that
// vendor-tuned MPI libraries use — the reason MPI's collective wins in
// Figure 4.5 while still saturating past two cores per node.
package mpi

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// EagerThreshold is the message size at or below which sends complete
// locally without waiting for the receiver (bytes).
const EagerThreshold = 4096

// smOverhead is the per-message cost of the shared-memory (sm) transport
// used for intra-node sends.
const smOverhead = 200 * sim.Nanosecond

// Config describes one MPI execution.
type Config struct {
	Machine      *topo.Machine
	Conduit      *fabric.Conduit // nil = machine default
	Ranks        int
	RanksPerNode int
	Binding      topo.Binding
	Seed         int64
	// Tracer, when non-nil, receives the run's trace events in addition to
	// any process-default tracer (see internal/trace).
	Tracer trace.Tracer
	// Faults, when non-nil, overrides the process-default fault schedule
	// (see internal/fault). The library then retransmits lost messages
	// under Retry and surfaces unrecoverable failures as typed errors.
	Faults *fault.Schedule
	// Retry tunes recovery when a fault schedule is installed; zero
	// fields take fault.DefaultRetryPolicy.
	Retry fault.RetryPolicy
}

// World is the per-execution state shared by all ranks.
type World struct {
	Cfg     Config
	Eng     *sim.Engine
	Cluster *fabric.Cluster

	comms  []*Comm
	places []topo.Place
	eps    []*fabric.Endpoint

	inbox   [][]*message // per destination rank
	rxQ     []sim.WaitQueue
	nodes   int
	barCost sim.Duration
	bar     *sim.Rendezvous
	colls   *sim.Collective

	inj   *fault.Injector
	retry fault.RetryPolicy
	// edges is true when the installed tracer opted into completion-edge
	// instants (trace.EdgeObserver), cached at construction.
	edges bool
}

type message struct {
	src     int
	bytes   int64
	data    []byte
	arrived *sim.Event
}

// Stats summarizes a completed run.
type Stats struct {
	Elapsed sim.Duration
	Ranks   int
}

// Comm is one rank's communicator handle (MPI_COMM_WORLD view).
type Comm struct {
	w     *World
	P     *sim.Proc
	Rank  int
	Size  int
	Place topo.Place
	ep    *fabric.Endpoint
}

// Run executes main on every rank and returns run statistics.
func Run(cfg Config, main func(c *Comm)) (Stats, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return Stats{}, err
	}
	for _, c := range w.comms {
		c := c
		w.Eng.Go(fmt.Sprintf("mpi%d", c.Rank), func(p *sim.Proc) {
			c.P = p
			main(c)
		})
	}
	if err := w.Eng.Run(); err != nil {
		return Stats{}, err
	}
	return Stats{Elapsed: w.Eng.Now(), Ranks: cfg.Ranks}, nil
}

// NewWorld builds the world without launching ranks.
func NewWorld(cfg Config) (*World, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("mpi: Config.Machine is required")
	}
	if cfg.Ranks <= 0 || cfg.RanksPerNode <= 0 {
		return nil, fmt.Errorf("mpi: Ranks=%d RanksPerNode=%d", cfg.Ranks, cfg.RanksPerNode)
	}
	cond := fabric.Conduit{}
	if cfg.Conduit != nil {
		cond = *cfg.Conduit
	} else {
		var ok bool
		cond, ok = fabric.ConduitByName(cfg.Machine.DefaultConduit)
		if !ok {
			return nil, fmt.Errorf("mpi: unknown default conduit %q", cfg.Machine.DefaultConduit)
		}
	}
	places, err := cfg.Machine.Layout(cfg.Ranks, cfg.RanksPerNode, cfg.Binding)
	if err != nil {
		return nil, err
	}
	eng := sim.New(cfg.Seed)
	if cfg.Tracer != nil {
		cfg.Tracer.Emit(trace.Event{Kind: trace.KRunBegin, Proc: trace.EngineProc,
			Cat: "sim", Name: "run", Arg: cfg.Seed})
		eng.SetTracer(trace.Tee(eng.Tracer(), cfg.Tracer))
	}
	cl := fabric.NewCluster(eng, cfg.Machine, cond)
	w := &World{
		Cfg:     cfg,
		Eng:     eng,
		Cluster: cl,
		places:  places,
		eps:     make([]*fabric.Endpoint, cfg.Ranks),
		inbox:   make([][]*message, cfg.Ranks),
		rxQ:     make([]sim.WaitQueue, cfg.Ranks),
	}
	w.edges = trace.WantsEdge(eng.Tracer())
	w.nodes = (cfg.Ranks + cfg.RanksPerNode - 1) / cfg.RanksPerNode
	w.barCost = cl.BarrierCost(w.nodes)
	// MPI ranks never retire: a crashed rank simply stops arriving, and
	// the fault-aware waits diagnose the stall (BarrierErr).
	w.bar = sim.NewRendezvous(eng, cfg.Ranks, w.barCost, nil, nil)
	w.colls = sim.NewCollective(eng, cfg.Ranks, nil, nil)
	for i := range w.eps {
		w.eps[i] = cl.MustEndpoint(places[i].Node)
	}
	w.comms = make([]*Comm, cfg.Ranks)
	for i := range w.comms {
		w.comms[i] = &Comm{w: w, Rank: i, Size: cfg.Ranks, Place: places[i], ep: w.eps[i]}
	}
	sched := cfg.Faults
	if sched == nil {
		sched = fault.Default()
	}
	inj, err := fault.Install(cl, sched)
	if err != nil {
		return nil, err
	}
	if inj != nil {
		w.inj = inj
		w.retry = cfg.Retry.OrDefault()
	}
	return w, nil
}

// Comm reports rank i's communicator (for co-scheduled setups).
func (w *World) Comm(i int) *Comm { return w.comms[i] }

// World reports the communicator's owning world.
func (c *Comm) World() *World { return c.w }

// transfer moves bytes from c toward dst through the transport the MPI
// library would choose: shared memory within a node, the conduit across.
func (c *Comm) transfer(dst int, bytes int64, apply func()) *fabric.NetOp {
	w := c.w
	dstPlace := w.places[dst]
	sameNode := topo.SameNode(c.Place, dstPlace)
	if w.Eng.Tracing() {
		// One comm-matrix instant per send: the sm transport classifies as
		// shared memory, everything else as conduit traffic (an MPI rank
		// never takes the network loopback — the library always picks sm
		// within a node).
		class := trace.ClassNetwork
		switch {
		case dst == c.Rank:
			class = trace.ClassSelf
		case sameNode:
			class = trace.ClassPSHM
		}
		c.P.TraceInstant(trace.CatComm, "send", class, bytes,
			trace.PackEndpoints(c.Rank, dst, c.Place.Node, dstPlace.Node))
	}
	if sameNode {
		op, err := w.Cluster.MemCopyAsync(c.P, c.Place, dstPlace, bytes, smOverhead, apply)
		if err != nil {
			panic(err) // unreachable: sameNode just checked
		}
		return op
	}
	return c.ep.PutAsync(c.P, w.eps[dst], bytes,
		w.inj.Fence(c.Rank, dst, c.Place.Node, dstPlace.Node, bytes, apply))
}

// post enqueues a matching record of the given byte volume at the
// destination and starts its transfer.
func (c *Comm) post(dst int, bytes int64, data []byte) (*fabric.NetOp, *message) {
	msg := &message{src: c.Rank, bytes: bytes, data: data, arrived: &sim.Event{}}
	c.w.inbox[dst] = append(c.w.inbox[dst], msg)
	c.w.rxQ[dst].WakeAll()
	return c.transfer(dst, bytes, msg.arrived.Fire), msg
}

// isend snapshots data, enqueues the matching record at the destination,
// and starts the transfer, returning its handle.
func (c *Comm) isend(dst int, data []byte) *fabric.NetOp {
	snap := make([]byte, len(data))
	copy(snap, data)
	op, _ := c.post(dst, int64(len(data)), snap)
	return op
}

// Send delivers data to rank dst (MPI_Send). Messages at or below the
// eager threshold complete when the payload leaves the source buffer;
// larger messages use the rendezvous protocol and return after the
// transfer drains. Under an installed fault schedule it recovers lost
// messages and panics with the typed error SendErr would return.
func (c *Comm) Send(dst int, data []byte) {
	if err := c.SendErr(dst, data); err != nil {
		panic(err)
	}
}

// SendModel delivers a payload-free message of the given byte volume to
// rank dst: the model-mode transfer for benchmark geometries too large to
// materialize. Blocking semantics match Send.
func (c *Comm) SendModel(dst int, bytes int64) {
	if err := c.SendModelErr(dst, bytes); err != nil {
		panic(err)
	}
}

// SendrecvModel is the payload-free form of Sendrecv.
func (c *Comm) SendrecvModel(dst int, bytes int64, src int) {
	op, _ := c.post(dst, bytes, nil)
	c.Recv(src)
	op.WaitLocal(c.P)
}

// Recv blocks until a message from src arrives and returns its payload
// (MPI_Recv with an explicit source). Messages from one source are
// delivered in send order. Under an installed fault schedule it recovers
// lost messages and panics with the typed error RecvErr would return.
func (c *Comm) Recv(src int) []byte {
	data, err := c.RecvErr(src)
	if err != nil {
		panic(err)
	}
	return data
}

// match dequeues the oldest inbox record from src, blocking until one is
// posted.
func (c *Comm) match(src int) *message {
	w := c.w
	waited := false
	for {
		if m := c.matchNow(src); m != nil {
			if w.edges && waited {
				// Late-sender edge: the receiver was parked when the post
				// finally arrived; blame the sender.
				c.P.TraceInstant(trace.CatEdge, trace.EdgeMsgMatch, "", m.bytes,
					trace.PackEndpoints(m.src, c.Rank,
						w.places[m.src].Node, c.Place.Node))
			}
			return m
		}
		waited = true
		w.rxQ[c.Rank].Wait(c.P, "mpi-recv")
	}
}

// matchNow dequeues the oldest inbox record from src without blocking.
func (c *Comm) matchNow(src int) *message {
	w := c.w
	for i, m := range w.inbox[c.Rank] {
		if m.src != src {
			continue
		}
		w.inbox[c.Rank] = append(w.inbox[c.Rank][:i], w.inbox[c.Rank][i+1:]...)
		return m
	}
	return nil
}

// Sendrecv sends data to dst and receives a payload from src without
// deadlock (MPI_Sendrecv): the send is initiated before blocking on the
// receive.
func (c *Comm) Sendrecv(dst int, data []byte, src int) []byte {
	op := c.isend(dst, data)
	in := c.Recv(src)
	op.WaitLocal(c.P)
	return in
}

// Barrier synchronizes all ranks (MPI_Barrier). Under an installed fault
// schedule it panics with the typed error BarrierErr would return
// instead of hanging on a crashed rank.
func (c *Comm) Barrier() {
	if err := c.BarrierErr(); err != nil {
		panic(err)
	}
}

// AllreduceSum sums one float64 per rank on every rank (MPI_Allreduce).
func (c *Comm) AllreduceSum(v float64) float64 {
	r, err := c.AllreduceSumErr(v)
	if err != nil {
		panic(err)
	}
	return r
}

// AllreduceMax takes the max of one float64 per rank on every rank.
func (c *Comm) AllreduceMax(v float64) float64 {
	r, err := c.collectiveErr(v, func(vals []any) any {
		m := vals[0].(float64)
		for _, x := range vals[1:] {
			if f := x.(float64); f > m {
				m = f
			}
		}
		return m
	})
	if err != nil {
		panic(err)
	}
	return r.(float64)
}

// collectiveErr joins the rank's next collective slot and waits for its
// release — through the failure-detecting deadline ladder when a fault
// schedule is installed.
func (c *Comm) collectiveErr(val any, combine func([]any) any) (any, error) {
	slot := c.w.colls.Join(c.Rank, val, c.w.barCost, combine)
	if c.Failed() {
		return nil, c.commError("allreduce", c.Rank, 0, fault.ErrNodeDown)
	}
	if err := c.await("allreduce", slot.Done()); err != nil {
		return nil, err
	}
	return slot.Result(), nil
}

// Request is a handle to a non-blocking point-to-point operation.
type Request struct {
	op   *fabric.NetOp
	recv func() []byte // set for Irecv: resolves the payload at Wait
	data []byte
}

// Isend starts a non-blocking send (MPI_Isend). Wait returns when the
// send buffer is reusable.
func (c *Comm) Isend(dst int, data []byte) *Request {
	return &Request{op: c.isend(dst, data)}
}

// Irecv posts a non-blocking receive from src (MPI_Irecv). Wait blocks
// until a matching message has arrived and returns its payload.
func (c *Comm) Irecv(src int) *Request {
	return &Request{recv: func() []byte { return c.Recv(src) }}
}

// Wait completes the request (MPI_Wait) and, for receives, returns the
// payload.
func (c *Comm) Wait(r *Request) []byte {
	if r.recv != nil {
		r.data = r.recv()
		r.recv = nil
	}
	if r.data != nil {
		return r.data
	}
	if r.op != nil {
		r.op.WaitLocal(c.P)
	}
	return nil
}

// Waitall completes a batch of requests.
func (c *Comm) Waitall(rs []*Request) {
	for _, r := range rs {
		c.Wait(r)
	}
}

// Probe reports whether a message from src is matchable without blocking
// (MPI_Iprobe).
func (c *Comm) Probe(src int) bool {
	for _, m := range c.w.inbox[c.Rank] {
		if m.src == src {
			return true
		}
	}
	return false
}
