package cuda

// SlabSize counts the elements a NodeSlab holds: nodes, parameter
// images (one header and one size each), image bytes and dependencies.
type SlabSize struct {
	Nodes, Params, Bytes, Deps int
}

// NodeSlab hands out graph nodes and their data — parameter image
// headers, sizes, image bytes and dependency lists — as sub-slices of a
// few large backing arrays, instead of one allocation per node and per
// parameter. Stream capture owns one slab per capture; Medusa's restore
// sizes one per graph.
//
// Every sub-slice is capacity-capped (s[a:b:b]), so an append on one
// node's data reallocates rather than overwriting its neighbour. A
// backing array that runs out is replaced by a fresh chunk, never grown
// by copying, so every sub-slice already handed out stays valid.
type NodeSlab struct {
	nodes  chunk[Node]
	params chunk[[]byte]
	sizes  chunk[int]
	bytes  chunk[byte]
	deps   chunk[int]
	used   SlabSize
}

// NewNodeSlab returns a slab whose first chunks hold exactly size. A
// slab sized from a known graph makes no further allocations; past its
// size it grows by fresh chunks that start small and double.
func NewNodeSlab(size SlabSize) *NodeSlab {
	return &NodeSlab{
		nodes:  newChunk[Node](size.Nodes, 16),
		params: newChunk[[]byte](size.Params, 64),
		sizes:  newChunk[int](size.Params, 64),
		bytes:  newChunk[byte](size.Bytes, 512),
		deps:   newChunk[int](size.Deps, 16),
	}
}

// Node returns a node with the given ID and kernel address, room for
// nParams parameter images (filled with Image) and nDeps dependencies
// (Deps has length nDeps, for the caller to fill). Empty lists are nil.
func (s *NodeSlab) Node(id int, kernelAddr uint64, nParams, nDeps int) *Node {
	n := &s.nodes.carve(1)[0]
	*n = Node{ID: id, KernelAddr: kernelAddr}
	if nParams > 0 {
		n.Params = s.params.carve(nParams)
		n.ParamSizes = s.sizes.carve(nParams)
	}
	if nDeps > 0 {
		n.Deps = s.deps.carve(nDeps)
	}
	s.used.Nodes++
	s.used.Params += nParams
	s.used.Deps += nDeps
	return n
}

// Image carves a size-byte image for parameter i of n, records it and
// its size on the node, and returns it for the caller to fill.
func (s *NodeSlab) Image(n *Node, i, size int) []byte {
	img := s.bytes.carve(size)
	n.Params[i] = img
	n.ParamSizes[i] = size
	s.used.Bytes += size
	return img
}

// maxChunk caps chunk doubling, in elements.
const maxChunk = 1 << 16

// chunk is one element type's backing storage: the current array, whose
// unused capacity is the room left, and the size of the next fresh
// array.
type chunk[T any] struct {
	buf  []T
	next int
}

func newChunk[T any](size, minNext int) chunk[T] {
	return chunk[T]{buf: make([]T, 0, size), next: minNext}
}

// carve returns the next n elements as a capacity-capped, zeroed
// sub-slice. When the current array lacks room it starts a fresh one of
// at least c.next elements, then doubles c.next up to maxChunk; the old
// array stays alive through the sub-slices already carved from it.
func (c *chunk[T]) carve(n int) []T {
	if cap(c.buf)-len(c.buf) < n {
		c.buf = make([]T, 0, max(c.next, n))
		c.next = min(2*c.next, maxChunk)
	}
	start, end := len(c.buf), len(c.buf)+n
	c.buf = c.buf[:end]
	return c.buf[start:end:end]
}
