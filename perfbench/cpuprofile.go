package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU split by module comes from a runtime/pprof profile taken
// around the timed calls. The profile is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto); the few fields read
// here are decoded by hand to keep the benchmark standard-library only.

// cpuModules are the modules the CPU split reports, besides "other".
var cpuModules = []string{
	"medusa", "cuda", "kernels", "gpu", "engine", "serverless", "cluster",
	"eventq", "autoscale", "router", "sched", "kvcache", "artifactcache",
	"workload", "metrics", "obs", "runtime-gc", "runtime-malloc",
}

const repoPkgPrefix = "github.com/medusa-repro/medusa/internal/"

// gcFrames mark a stack as garbage-collector work (background marking,
// assists, sweeping, scavenging) wherever they appear in it.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.markroot", "runtime.scanobject", "runtime.(*gcWork)",
	"runtime.(*sweepLocked)", "runtime.(*mheap).reclaim", "runtime.deductSweepCredit",
}

// moduleOf attributes one sample's stack, leaf first. GC work and
// allocation are attributed to the runtime whatever called them; any
// other sample goes to the innermost frame inside the repository's
// internal packages, so standard-library helpers count toward the
// module that called them. Stacks with no such frame are "other".
func moduleOf(stack []string) string {
	for _, f := range stack {
		for _, p := range gcFrames {
			if strings.HasPrefix(f, p) {
				return "runtime-gc"
			}
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.mallocgc") {
			return "runtime-malloc"
		}
	}
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, repoPkgPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return "other"
}

// cpuSamples decodes a CPU profile and adds each module's sample count
// to counts.
func cpuSamples(gz []byte, counts map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, lid := range s.locations {
			for _, fid := range p.locFuncs[lid] {
				stack = append(stack, p.strings[p.funcNames[fid]])
			}
		}
		counts[moduleOf(stack)] += s.values[0]
	}
	return nil
}

type profSample struct {
	locations []uint64
	values    []int64
}

type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost inline frame first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

// parseProfile reads the Profile message's sample (2), location (4),
// function (5) and string_table (6) fields.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, body []byte) error {
		switch num {
		case 2:
			var s profSample
			err := eachField(body, func(n int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locations, v, bb)
				case 2:
					var vs []uint64
					if err := appendVarints(&vs, v, bb); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(body, func(n int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line{function_id = 1, line = 2}
					return eachField(bb, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(body, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(p.strings) == 0 {
		return nil, errMalformed
	}
	for id, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, idx, len(p.strings))
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field's value, which is
// either one varint (v) or a packed run of varints (packed != nil).
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errMalformed
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

var errMalformed = errors.New("profile: malformed protocol buffer")

// eachField walks one message's fields, passing varint values as v and
// length-delimited payloads as body (nil for other wire types).
func eachField(b []byte, fn func(num int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errMalformed
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errMalformed
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errMalformed
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errMalformed
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errMalformed
			}
			b = b[4:]
		default:
			return errMalformed
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}
