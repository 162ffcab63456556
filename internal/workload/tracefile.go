package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Trace files are JSON Lines: one request per line, with arrival
// offsets in milliseconds. The format makes traces diffable,
// greppable, and easy to produce from real serving logs:
//
//	{"arrival_ms":0,"prompt_tokens":161,"output_tokens":338}
//	{"arrival_ms":512,"prompt_tokens":80,"output_tokens":120}

// traceLine is the wire form of one request.
type traceLine struct {
	ArrivalMS    int64 `json:"arrival_ms"`
	PromptTokens int   `json:"prompt_tokens"`
	OutputTokens int   `json:"output_tokens"`
}

// WriteTrace serializes requests as JSON Lines.
func WriteTrace(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range reqs {
		if err := enc.Encode(traceLine{
			ArrivalMS:    r.Arrival.Milliseconds(),
			PromptTokens: r.PromptTokens,
			OutputTokens: r.OutputTokens,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSON Lines trace. Requests are sorted by arrival
// and renumbered; malformed lines fail with their line number.
func ReadTrace(r io.Reader) ([]Request, error) {
	var out []Request
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var tl traceLine
		if err := json.Unmarshal(line, &tl); err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", lineNo, err)
		}
		if tl.ArrivalMS < 0 || tl.PromptTokens < 1 || tl.OutputTokens < 1 {
			return nil, fmt.Errorf("workload: trace line %d: invalid request %+v", lineNo, tl)
		}
		out = append(out, Request{
			Arrival:      time.Duration(tl.ArrivalMS) * time.Millisecond,
			PromptTokens: tl.PromptTokens,
			OutputTokens: tl.OutputTokens,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	for i := range out {
		out[i].ID = i
	}
	return out, nil
}
