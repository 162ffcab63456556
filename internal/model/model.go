// Package model defines the LLM zoo of the paper's evaluation (Table 1)
// plus tiny functional models for tests.
//
// Each config carries two kinds of truth:
//
//   - Real structural dimensions (layers, hidden size, vocabulary) that
//     drive the cost model and the forwarding kernel sequence.
//   - Graph-shape constants (kernels per layer, epilogue nodes, padded
//     graphs) calibrated so that capturing the standard 35 batch sizes
//     reproduces the paper's CUDA-graph node counts exactly — 139364
//     nodes across the ten models.
package model

import (
	"fmt"
	"sort"
)

// Family selects the per-layer kernel sequence variant.
type Family string

const (
	// FamilyStandard is the 11-kernel decoder layer (Llama/Qwen/Yi
	// style): norm, qkv-GEMM, rope, attention, o-GEMM, add, norm,
	// gateup-GEMM, silu, down-GEMM, add.
	FamilyStandard Family = "standard"
	// FamilyFused is the 10-kernel layer with a fused norm-residual
	// (small Qwen models).
	FamilyFused Family = "fused"
	// FamilyParallel is the 12-kernel Falcon-style layer with parallel
	// attention/MLP requiring an extra bias add.
	FamilyParallel Family = "parallel"
)

// KernelsPerLayer returns the layer kernel count of a family.
func (f Family) KernelsPerLayer() int {
	switch f {
	case FamilyFused:
		return 10
	case FamilyParallel:
		return 12
	default:
		return 11
	}
}

// Config describes one model.
type Config struct {
	// Name as reported in Table 1, e.g. "Qwen1.5-4B".
	Name string
	// Family selects the layer kernel sequence.
	Family Family
	// ParamBytes is the fp16 parameter size (Table 1 row 1).
	ParamBytes uint64
	// Layers is the number of decoder layers.
	Layers int
	// Hidden is the model width.
	Hidden int
	// FFN is the MLP intermediate size.
	FFN int
	// Vocab is the vocabulary size.
	Vocab int
	// MaxSeqLen is the maximum supported sequence length.
	MaxSeqLen int
	// EpilogueNodes is the number of non-layer graph nodes per captured
	// graph (embedding, final norm, LM head, sampling, plus auxiliary
	// logits-processing kernels). Calibrated to Table 1.
	EpilogueNodes int
	// PaddedGraphs is the number of largest capture batch sizes whose
	// graphs carry one extra padding-kernel node. Calibrated to Table 1.
	PaddedGraphs int
	// Functional marks a tiny test model whose kernels run real math.
	Functional bool
	// TrickySeed makes the engine pass a sampling seed scalar that
	// collides with a device address, manufacturing the §4
	// false-positive pointer classification case.
	TrickySeed bool
	// TPDegree marks a tensor-parallel shard of a larger model (the §8
	// future-work extension): weight matrices and attention width are
	// divided across TPDegree ranks, while layer structure — and hence
	// CUDA graph shape — is unchanged. 0 or 1 means unsharded.
	TPDegree int
	// TPRank is this shard's rank in [0, TPDegree).
	TPRank int
}

// TP returns the effective tensor-parallel degree (≥1).
func (c Config) TP() int {
	if c.TPDegree > 1 {
		return c.TPDegree
	}
	return 1
}

// Shard derives one tensor-parallel rank's configuration.
func (c Config) Shard(rank, degree int) (Config, error) {
	if degree < 1 || rank < 0 || rank >= degree {
		return c, fmt.Errorf("model: invalid shard %d/%d", rank, degree)
	}
	if degree == 1 {
		return c, nil
	}
	if c.Hidden%degree != 0 || (c.Hidden/degree)%2 != 0 {
		return c, fmt.Errorf("model %s: hidden %d not shardable %d-way", c.Name, c.Hidden, degree)
	}
	if c.FFN%degree != 0 || c.Vocab%degree != 0 {
		return c, fmt.Errorf("model %s: ffn %d / vocab %d not shardable %d-way", c.Name, c.FFN, c.Vocab, degree)
	}
	s := c
	s.Name = fmt.Sprintf("%s-tp%d.%d", c.Name, degree, rank)
	s.TPDegree = degree
	s.TPRank = rank
	return s, nil
}

// minEpilogueNodes is the fixed epilogue: embedding lookup, final
// RMSNorm, LM-head GEMM, and argmax sampling. Configs add auxiliary
// elementwise nodes on top.
const minEpilogueNodes = 4

// Validate checks structural sanity.
func (c Config) Validate() error {
	if c.Name == "" || c.Layers <= 0 || c.Hidden <= 0 || c.Vocab <= 0 {
		return fmt.Errorf("model: malformed config %+v", c)
	}
	if c.Hidden%2 != 0 {
		return fmt.Errorf("model %s: hidden size %d must be even for RoPE", c.Name, c.Hidden)
	}
	if c.EpilogueNodes < minEpilogueNodes {
		return fmt.Errorf("model %s: epilogue %d below minimum %d", c.Name, c.EpilogueNodes, minEpilogueNodes)
	}
	if c.PaddedGraphs < 0 {
		return fmt.Errorf("model %s: negative padded graphs", c.Name)
	}
	return nil
}

// AuxEpilogueNodes is the number of auxiliary elementwise epilogue
// kernels beyond the fixed four.
func (c Config) AuxEpilogueNodes() int { return c.EpilogueNodes - minEpilogueNodes }

// BaseNodesPerGraph is the node count of an unpadded captured graph.
func (c Config) BaseNodesPerGraph() int {
	return c.Layers*c.Family.KernelsPerLayer() + c.EpilogueNodes
}

// GraphPadded reports whether the graph for the given batch size gets
// the extra padding node, given the full set of capture sizes: the
// PaddedGraphs largest sizes do.
func (c Config) GraphPadded(batch int, captureSizes []int) bool {
	if c.PaddedGraphs == 0 {
		return false
	}
	sorted := append([]int(nil), captureSizes...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	cut := c.PaddedGraphs
	if cut > len(sorted) {
		cut = len(sorted)
	}
	for _, s := range sorted[:cut] {
		if s == batch {
			return true
		}
	}
	return false
}

// NodesPerGraph returns the node count of the graph captured for one
// batch size.
func (c Config) NodesPerGraph(batch int, captureSizes []int) int {
	n := c.BaseNodesPerGraph()
	if c.GraphPadded(batch, captureSizes) {
		n++
	}
	return n
}

// TotalGraphNodes returns the summed node count over all capture sizes
// — the Table 1 "CUDA graph nodes" figure.
func (c Config) TotalGraphNodes(captureSizes []int) int {
	total := 0
	for _, b := range captureSizes {
		total += c.NodesPerGraph(b, captureSizes)
	}
	return total
}

// CaptureBatchSizes returns vLLM's default 35 CUDA-graph capture batch
// sizes: 1, 2, 4, then multiples of 8 up to 256.
func CaptureBatchSizes() []int {
	sizes := []int{1, 2, 4}
	for b := 8; b <= 256; b += 8 {
		sizes = append(sizes, b)
	}
	return sizes
}

// MaxCaptureBatch is the largest captured batch size.
func MaxCaptureBatch() int {
	s := CaptureBatchSizes()
	return s[len(s)-1]
}
