package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/medusa-repro/medusa/internal/experiments"
)

// resultFile maps an exhibit id to the results/ file holding its
// checked-in output. ext-fleet writes ext-fleet.txt under
// `medusa-bench -out`, but the docs cite ext-fleet-sweep.txt, so that is
// the file it is checked against; the benchmark reports the drift.
var resultFile = map[string]string{"ext-fleet": "ext-fleet-sweep.txt"}

// handMade are results/ files no exhibit renders; they are skipped by
// name.
var handMade = map[string]bool{
	"perf-analysis.txt": true, "perf-simcore.txt": true, "trace-demo.json": true,
}

// paperState holds the expected output of every exhibit, read from
// results/ in the checkout.
type paperState struct {
	ids      []string
	expected map[string][]byte
	notes    []string // name drift and unmatched files, reported not failed
}

// setupPaper reads the reference outputs. paper-all ignores the
// workload seed: every exhibit pins its own seeds, because the check is
// byte identity with results/.
func setupPaper(dir string) (*paperState, error) {
	st := &paperState{ids: experiments.IDs(), expected: map[string][]byte{}}
	claimed := map[string]bool{}
	for _, id := range st.ids {
		name := id + ".txt"
		if f, ok := resultFile[id]; ok {
			name = f
			st.notes = append(st.notes, fmt.Sprintf(
				"note: name drift: exhibit %s is saved as %s.txt by medusa-bench -out but checked against results/%s, the file the docs cite", id, id, f))
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("expected output of %s: %w", id, err)
		}
		st.expected[id] = b
		claimed[name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !claimed[e.Name()] && !handMade[e.Name()] {
			st.notes = append(st.notes, "note: results/"+e.Name()+" is rendered by no exhibit")
		}
	}
	sort.Strings(st.notes)
	return st, nil
}

// paperPass is one `medusa-bench -all`: every exhibit in registration
// order on one fresh Context.
type paperPass struct {
	rendered map[string]string
	failed   []string // exhibits that returned an error
}

func (st *paperState) pass(tr *tracer) *paperPass {
	p := &paperPass{rendered: map[string]string{}}
	ctx := experiments.NewContext()
	for _, id := range st.ids {
		err := tr.do("experiments.Run:"+id, func() error {
			r, err := experiments.Run(ctx, id)
			if err == nil {
				p.rendered[id] = r.Render() + "\n"
			}
			return err
		})
		if err != nil {
			p.failed = append(p.failed, fmt.Sprintf("%s: %v", id, err))
		}
	}
	return p
}

// check compares every rendered exhibit with its results/ file.
func (st *paperState) check(p *paperPass) []string {
	var errs []string
	for _, id := range st.ids {
		got, ok := p.rendered[id]
		if ok && got != string(st.expected[id]) {
			errs = append(errs, fmt.Sprintf("exhibit %s differs from its results/ file%s", id, firstDiff(got, string(st.expected[id]))))
		}
	}
	return errs
}

// render concatenates the pass's output in exhibit order, for comparing
// passes with each other.
func (p *paperPass) render(ids []string) string {
	var b strings.Builder
	for _, id := range ids {
		b.WriteString(p.rendered[id])
	}
	return b.String()
}

// firstDiff names the first differing line of two renderings.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf(" at line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return ""
}
