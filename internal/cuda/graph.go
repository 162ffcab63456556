package cuda

import (
	"fmt"
	"time"
)

// Stream is a CUDA stream: an in-order queue of device work. During
// capture, launches on any participating stream are recorded as graph
// nodes, with intra-stream order becoming dependency edges and events
// becoming cross-stream edges.
type Stream struct {
	p  *Process
	id int
}

// ID returns the stream's process-local id.
func (s *Stream) ID() int { return s.id }

// Synchronize waits for the stream's work (cudaStreamSynchronize).
// Like device synchronization, it is prohibited during capture — the
// paper's §2.3 lists both as the reason warm-up must precede capture.
func (s *Stream) Synchronize() error {
	if s.p.capture != nil {
		err := &CaptureInvalidatedError{Op: "cudaStreamSynchronize"}
		s.p.capture.invalidated = err
		return err
	}
	return nil
}

// Event is a CUDA event used for cross-stream ordering. During capture,
// Record/Wait pairs become graph dependency edges.
type Event struct {
	recorded bool
	node     int // last node on the recording stream at record time; -1 if none
}

// NewEvent creates an event.
func (p *Process) NewEvent() *Event { return &Event{node: -1} }

// captureState holds an in-progress stream capture. Its nodes and their
// data are carved from the capture's own slab.
type captureState struct {
	origin       *Stream
	nodes        []*Node
	slab         *NodeSlab
	lastInStream map[int]int // stream id -> last node id
	pendingDeps  map[int][]int
	invalidated  error
}

// BeginCapture starts capturing on the stream
// (cudaStreamBeginCapture). Only one capture may be active per process.
func (s *Stream) BeginCapture() error {
	if s.p.capture != nil {
		return ErrCaptureActive
	}
	// An engine captures one graph per batch size, each the size of the
	// last give or take a node, so the last capture sizes this one's
	// node list and slab.
	s.p.capture = &captureState{
		origin:       s,
		nodes:        make([]*Node, 0, s.p.lastCapture.Nodes),
		slab:         NewNodeSlab(s.p.lastCapture),
		lastInStream: make(map[int]int),
		pendingDeps:  make(map[int][]int),
	}
	return nil
}

// EndCapture finishes the capture and returns the built graph
// (cudaStreamEndCapture). If a prohibited operation occurred during the
// capture, the capture's error is returned and the graph discarded.
func (s *Stream) EndCapture() (*Graph, error) {
	c := s.p.capture
	if c == nil || c.origin != s {
		return nil, ErrNoCapture
	}
	s.p.capture = nil
	s.p.lastCapture = c.slab.used
	if c.invalidated != nil {
		return nil, c.invalidated
	}
	g := &Graph{nodes: c.nodes}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("cuda: capture produced invalid graph: %w", err)
	}
	return g, nil
}

// Capturing reports whether a capture is active on the process.
func (p *Process) Capturing() bool { return p.capture != nil }

// record appends a launch as a graph node and returns the node.
func (c *captureState) record(s *Stream, k *Kernel, args []Value) *Node {
	id := len(c.nodes)
	last, hasLast := c.lastInStream[s.id]
	pend := c.pendingDeps[s.id]
	nDeps := len(pend)
	if hasLast {
		nDeps++
	}
	n := c.slab.Node(id, k.Addr(), len(args), nDeps)
	if hasLast {
		n.Deps[0] = last
	}
	if len(pend) > 0 {
		copy(n.Deps[nDeps-len(pend):], pend)
		delete(c.pendingDeps, s.id)
	}
	for i, a := range args {
		a.put(c.slab.Image(n, i, a.Kind.Size()))
	}
	c.nodes = append(c.nodes, n)
	c.lastInStream[s.id] = id
	return n
}

// RecordEvent records the event on the stream. During capture it marks
// the stream's last node as the event's dependency source.
func (s *Stream) RecordEvent(e *Event) error {
	e.recorded = true
	if c := s.p.capture; c != nil {
		if last, ok := c.lastInStream[s.id]; ok {
			e.node = last
		} else {
			e.node = -1
		}
	}
	return nil
}

// WaitEvent makes subsequent work on the stream depend on the event.
func (s *Stream) WaitEvent(e *Event) error {
	if !e.recorded {
		return fmt.Errorf("cuda: wait on unrecorded event")
	}
	if c := s.p.capture; c != nil && e.node >= 0 {
		c.pendingDeps[s.id] = append(c.pendingDeps[s.id], e.node)
	}
	return nil
}

// Node is one kernel node of a CUDA graph, carrying exactly the
// information of Figure 4(d): the kernel's address, the array of raw
// parameter images, the number of parameters and the size of each, plus
// the dependency edges. Nothing identifies which parameters are
// pointers.
type Node struct {
	ID         int
	KernelAddr uint64
	Params     [][]byte
	ParamSizes []int
	Deps       []int
}

// Clone returns a deep copy of the node.
func (n *Node) Clone() *Node {
	cp := &Node{ID: n.ID, KernelAddr: n.KernelAddr}
	cp.Params = make([][]byte, len(n.Params))
	for i, p := range n.Params {
		cp.Params[i] = append([]byte(nil), p...)
	}
	cp.ParamSizes = append([]int(nil), n.ParamSizes...)
	cp.Deps = append([]int(nil), n.Deps...)
	return cp
}

// Graph is a CUDA graph: kernels plus execution dependencies.
type Graph struct {
	nodes []*Node
}

// NewGraph builds a graph from explicit nodes — the path Medusa's
// restoration uses (the explicit-construction analogue of
// cudaGraphAddKernelNode).
func NewGraph(nodes []*Node) *Graph { return &Graph{nodes: nodes} }

// Nodes returns the graph's nodes indexed by ID.
func (g *Graph) Nodes() []*Node { return g.nodes }

// NodeCount reports the number of kernel nodes.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// Validate checks IDs are dense, dependencies reference earlier valid
// nodes, and the graph is acyclic.
func (g *Graph) Validate() error {
	_, err := g.validate()
	return err
}

// validate is Validate returning the topological order its acyclicity
// check computed, so Instantiate need not compute it again.
func (g *Graph) validate() ([]int, error) {
	for i, n := range g.nodes {
		if n.ID != i {
			return nil, fmt.Errorf("node %d has ID %d", i, n.ID)
		}
		if len(n.Params) != len(n.ParamSizes) {
			return nil, fmt.Errorf("node %d: %d params, %d sizes", i, len(n.Params), len(n.ParamSizes))
		}
		for j, p := range n.Params {
			if len(p) != n.ParamSizes[j] {
				return nil, fmt.Errorf("node %d param %d: image %d bytes, declared %d", i, j, len(p), n.ParamSizes[j])
			}
		}
		for _, d := range n.Deps {
			if d < 0 || d >= len(g.nodes) {
				return nil, fmt.Errorf("node %d depends on invalid node %d", i, d)
			}
		}
	}
	return g.TopoOrder()
}

// TopoOrder returns a topological ordering of node IDs (dependencies
// first) or an error if the graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.nodes)
	edges := 0
	for _, node := range g.nodes {
		edges += len(node.Deps)
	}
	// Successor lists in CSR form, in one scratch slice: count each
	// node's successors, prefix-sum the counts into offsets, then fill.
	// Filling advances off[d] from the start of d's list to its end,
	// so afterwards d's successors are succ[off[d-1]:off[d]].
	scratch := make([]int, 2*n+1+edges)
	indeg, off, succ := scratch[:n], scratch[n:2*n+1], scratch[2*n+1:]
	for _, node := range g.nodes {
		for _, d := range node.Deps {
			off[d+1]++
			indeg[node.ID]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	for _, node := range g.nodes {
		for _, d := range node.Deps {
			succ[off[d]] = node.ID
			off[d]++
		}
	}
	// Kahn's algorithm with a FIFO over node IDs keeps the order
	// deterministic and close to capture order. The order is the FIFO
	// itself: a node is appended when its last dependency is popped.
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		id := order[head]
		lo := 0
		if id > 0 {
			lo = off[id-1]
		}
		for _, s := range succ[lo:off[id]] {
			indeg[s]--
			if indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("cuda: graph has a dependency cycle (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// GraphExec is an instantiated, ready-to-launch graph.
type GraphExec struct {
	g    *Graph
	p    *Process
	topo []int
}

// Instantiate validates the graph against the process — every node's
// kernel address must resolve to a loaded kernel with a matching
// parameter layout — and prepares it for launch (cudaGraphInstantiate).
func (g *Graph) Instantiate(p *Process) (*GraphExec, error) {
	topo, err := g.validate()
	if err != nil {
		return nil, err
	}
	for _, n := range g.nodes {
		k, ok := p.KernelByAddr(n.KernelAddr)
		if !ok {
			return nil, &UnknownKernelError{Addr: n.KernelAddr}
		}
		if len(n.Params) != len(k.impl.Params) {
			return nil, &ParamMismatchError{Kernel: k.Name(),
				Detail: fmt.Sprintf("node %d has %d params, kernel wants %d", n.ID, len(n.Params), len(k.impl.Params))}
		}
		for i, kind := range k.impl.Params {
			if n.ParamSizes[i] != kind.Size() {
				return nil, &ParamMismatchError{Kernel: k.Name(),
					Detail: fmt.Sprintf("node %d param %d is %d bytes, kernel wants %d", n.ID, i, n.ParamSizes[i], kind.Size())}
			}
		}
	}
	p.clock.Advance(time.Duration(len(g.nodes)) * p.cfg.InstantiateNodeCost)
	return &GraphExec{g: g, p: p, topo: topo}, nil
}

// Graph returns the underlying graph.
func (ge *GraphExec) Graph() *Graph { return ge.g }

// Launch replays the graph (cudaGraphLaunch): one CPU submission, then
// every node executes in dependency order with the parameters recorded
// in the nodes — the self-replaying property of §2.2.
func (ge *GraphExec) Launch(s *Stream) error {
	p := ge.p
	if p.capture != nil {
		err := &CaptureInvalidatedError{Op: "cudaGraphLaunch"}
		p.capture.invalidated = err
		return err
	}
	p.clock.Advance(p.cfg.GraphLaunchOverhead)
	for _, id := range ge.topo {
		n := ge.g.nodes[id]
		k, ok := p.KernelByAddr(n.KernelAddr)
		if !ok {
			return &UnknownKernelError{Addr: n.KernelAddr}
		}
		args, err := DecodeArgs(k.impl.Params, n.Params)
		if err != nil {
			return &ParamMismatchError{Kernel: k.Name(), Detail: err.Error()}
		}
		p.clock.Advance(p.kernelCost(k.impl, args))
		if p.dev.Functional() && k.impl.Func != nil {
			if err := k.impl.Func(p.dev, args); err != nil {
				return fmt.Errorf("graph node %d kernel %s: %w", id, k.Name(), err)
			}
		}
	}
	return nil
}
