// Package medusa implements the paper's contribution: state
// materialization for serverless LLM inference cold starts.
//
// Offline, a Recorder observes a full cold start — every buffer
// (de)allocation and every kernel launch — while the engine captures its
// CUDA graphs. Analyze then turns the captured graphs plus the trace
// into an Artifact: graph topology, constants, *indirect index pointers*
// (§4.1) for every data pointer, a kernel name table (§5), the buffer
// (de)allocation sequence, permanent-buffer contents (§4.3), and the
// materialized KV cache sizing (§6).
//
// Online, a Restorer replays the allocation sequence, fills pointers
// back in from the indirect index pointer table, restores kernel
// addresses via dlsym and triggering-kernel module enumeration, and
// rebuilds ready-to-launch graph executables without any warm-up or
// capture of the full model.
package medusa

import (
	"fmt"

	"github.com/medusa-repro/medusa/internal/cuda"
)

// event is one offline-observed allocation event, including the
// transient address (addresses are never persisted — they are the
// non-determinism being materialized away).
type event struct {
	free       bool
	allocIndex int
	size       uint64
	addr       uint64
	label      string
}

// launch is one offline-observed kernel launch.
type launch struct {
	eventPos   int // events observed before this launch
	kernelAddr uint64
	captured   bool
	nodeID     int
}

// capturedGraph pairs a captured CUDA graph with the launches that
// produced its nodes.
type capturedGraph struct {
	batch    int
	graph    *cuda.Graph
	launches []launch // index == node ID
}

// Recorder observes one offline cold start. Install its Hooks on the
// process before the first allocation.
type Recorder struct {
	events   []event
	launches []launch // non-captured launches (eager warm-up etc.)
	pending  []launch // captured launches awaiting AttachGraph
	graphs   []capturedGraph

	labels            map[string]int // label -> alloc index
	captureStageBegin int            // event position; -1 until marked
	captureStageEnd   int            // event position; -1 until marked

	kv     KVRecord
	kvSet  bool
	broken error

	index       *TraceIndex // cached interval index; see index.go
	indexEvents int         // event count the cache was built from
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{labels: make(map[string]int), captureStageBegin: -1, captureStageEnd: -1}
}

// Hooks returns the process hooks that feed the recorder.
func (r *Recorder) Hooks() cuda.Hooks {
	return cuda.Hooks{
		OnAlloc: func(ev cuda.AllocEvent) {
			r.events = append(r.events, event{
				free:       ev.Free,
				allocIndex: ev.AllocIndex,
				size:       ev.Size,
				addr:       ev.Addr,
			})
		},
		OnLaunch: func(rec cuda.LaunchRecord) {
			l := launch{
				eventPos:   len(r.events),
				kernelAddr: rec.KernelAddr,
				captured:   rec.Captured,
				nodeID:     rec.NodeID,
			}
			if rec.Captured {
				r.pending = append(r.pending, l)
			} else {
				r.launches = append(r.launches, l)
			}
		},
	}
}

// LabelLastAlloc names the most recent allocation so the online phase
// can find it by role (e.g. "kv.k", "cublas.ws1.b16").
func (r *Recorder) LabelLastAlloc(label string) {
	for i := len(r.events) - 1; i >= 0; i-- {
		if !r.events[i].free {
			r.events[i].label = label
			r.labels[label] = r.events[i].allocIndex
			return
		}
	}
	r.broken = fmt.Errorf("medusa: LabelLastAlloc(%q) with no allocations", label)
}

// MarkCaptureStageBegin marks the boundary between the loading-phase
// prefix (model structure, weights, profiling, KV cache) and the
// capture stage. Buffer classification (§4.3) pivots on this marker:
// pointers into allocations made before it are model-parameter-class
// buffers whose contents the natural control flow reproduces online.
func (r *Recorder) MarkCaptureStageBegin() {
	if r.captureStageBegin >= 0 {
		r.broken = fmt.Errorf("medusa: capture stage marked twice")
		return
	}
	r.captureStageBegin = len(r.events)
}

// MarkCaptureStageEnd marks the end of the capture stage. Capture-stage
// allocations still live here are permanent buffers (contents saved);
// already-freed ones are temporaries (contents discarded).
func (r *Recorder) MarkCaptureStageEnd() {
	r.captureStageEnd = len(r.events)
}

// AttachGraph hands over a freshly captured graph for the given batch
// size. All captured launches since the previous AttachGraph must
// correspond 1:1 to the graph's nodes.
func (r *Recorder) AttachGraph(batch int, g *cuda.Graph) error {
	if len(r.pending) != g.NodeCount() {
		return fmt.Errorf("medusa: graph for batch %d has %d nodes but %d captured launches pending",
			batch, g.NodeCount(), len(r.pending))
	}
	for i, l := range r.pending {
		if l.nodeID != i {
			return fmt.Errorf("medusa: captured launch %d maps to node %d", i, l.nodeID)
		}
	}
	r.graphs = append(r.graphs, capturedGraph{batch: batch, graph: g, launches: r.pending})
	r.pending = nil
	return nil
}

// RecordKV materializes the KV cache initialization result (§6): the
// profiled free GPU memory and the block geometry derived from it.
func (r *Recorder) RecordKV(kv KVRecord) {
	r.kv = kv
	r.kvSet = true
}

// GraphCount reports attached graphs.
func (r *Recorder) GraphCount() int { return len(r.graphs) }

// check verifies the recorder is in an analyzable state.
func (r *Recorder) check() error {
	if r.broken != nil {
		return r.broken
	}
	if r.captureStageBegin < 0 {
		return fmt.Errorf("medusa: capture stage begin never marked")
	}
	if r.captureStageEnd < 0 {
		return fmt.Errorf("medusa: capture stage end never marked")
	}
	if len(r.pending) != 0 {
		return fmt.Errorf("medusa: %d captured launches never attached to a graph", len(r.pending))
	}
	if !r.kvSet {
		return fmt.Errorf("medusa: KV cache initialization never recorded")
	}
	return nil
}
