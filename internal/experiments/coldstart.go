package experiments

import (
	"fmt"
	"time"

	"github.com/medusa-repro/medusa/internal/engine"
	"github.com/medusa-repro/medusa/internal/metrics"
	"github.com/medusa-repro/medusa/internal/model"
	"github.com/medusa-repro/medusa/internal/plot"
	"github.com/medusa-repro/medusa/internal/trace"
	"github.com/medusa-repro/medusa/internal/workload"
)

func init() {
	register("table1", runTable1)
	register("fig1", runFigure1)
	register("fig2", runFigure2)
	register("fig3", runFigure3)
	register("fig7", runFigure7)
	register("fig8", runFigure8)
	register("fig9", runFigure9)
}

// runTable1 reproduces Table 1: parameter sizes and measured CUDA graph
// node counts over the 35 standard capture batch sizes.
func runTable1(c *Context) (*Report, error) {
	r := &Report{
		ID:     "table1",
		Title:  "Models, parameter sizes, and CUDA graph node counts (35 batch sizes)",
		Header: []string{"model", "parameter size", "CUDA graph nodes", "paper"},
	}
	paper := map[string]int{
		"Falcon-7B": 14406, "Llama2-7B": 12518, "Llama2-13B": 16150,
		"Qwen1.5-0.5B": 9118, "Qwen1.5-1.8B": 9550, "Qwen1.5-4B": 16150,
		"Qwen1.5-7B": 12902, "Qwen1.5-14B": 16350, "Yi-6B": 12902, "Yi-9B": 19318,
	}
	total := 0
	for _, cfg := range model.Zoo() {
		inst, err := c.Baseline(cfg)
		if err != nil {
			return nil, err
		}
		nodes := inst.GraphNodeTotal()
		total += nodes
		r.AddRow(cfg.Name,
			fmt.Sprintf("%.1fGB", float64(cfg.ParamBytes)/(1<<30)),
			fmt.Sprintf("%d", nodes),
			fmt.Sprintf("%d", paper[cfg.Name]))
	}
	r.AddNote("total nodes across all models: %d (paper: %d)", total, model.PaperTotalGraphNodes)
	r.SetMetric("total_graph_nodes", float64(total))
	return r, nil
}

// runFigure1 reproduces Figure 1: the cold-start timeline of Qwen1.5-4B
// under vanilla vLLM, split into runtime init / loading / first token.
func runFigure1(c *Context) (*Report, error) {
	cfg, err := model.ByName("Qwen1.5-4B")
	if err != nil {
		return nil, err
	}
	inst, err := c.ColdStart(cfg, engine.StrategyVLLM, true)
	if err != nil {
		return nil, err
	}
	first, err := inst.FirstTokenServeDuration(workload.ShareGPTMeanPrompt)
	if err != nil {
		return nil, err
	}
	runtime := inst.Timeline().StageDuration(engine.StageRuntimeInit)
	loading := inst.LoadingDuration()
	total := runtime + loading + first

	r := &Report{
		ID:     "fig1",
		Title:  "Cold start timeline when serving Qwen1.5-4B (vanilla vLLM)",
		Header: []string{"phase", "seconds", "share", "paper share"},
	}
	r.AddRow("initializing runtime", secs(runtime), pct(float64(runtime)/float64(total)), "22%")
	r.AddRow("loading phase", secs(loading), pct(float64(loading)/float64(total)), "76%")
	r.AddRow("generating first token", secs(first), pct(float64(first)/float64(total)), "2%")
	for _, st := range inst.Timeline().Stages() {
		if st.Name == engine.StageRuntimeInit {
			continue
		}
		r.AddNote("loading stage %-24s %ss", st.Name, secs(st.Duration()))
	}
	return r, nil
}

var loadingStages = []string{
	engine.StageStructInit, engine.StageWeights, engine.StageTokenizer,
	engine.StageKVInit, engine.StageCapture,
}

// runFigure2 reproduces Figure 2: the per-stage breakdown of the
// loading phase across all ten models under vanilla vLLM.
func runFigure2(c *Context) (*Report, error) {
	r := &Report{
		ID:     "fig2",
		Title:  "Breakdown of the loading phase (vanilla vLLM, share of loading time)",
		Header: append([]string{"model", "total(s)"}, loadingStages...),
	}
	var kvShare, capShare float64
	bubbles := 0
	stacked := &plot.Stacked{Title: "loading phase by stage (seconds)", Segments: loadingStages}
	for _, cfg := range model.Zoo() {
		inst, err := c.Baseline(cfg)
		if err != nil {
			return nil, err
		}
		tl := inst.Timeline()
		total := inst.LoadingDuration()
		row := []string{cfg.Name, secs(total)}
		g := plot.BarGroup{Label: cfg.Name}
		for _, st := range loadingStages {
			row = append(row, pct(float64(tl.StageDuration(st))/float64(total)))
			g.Values = append(g.Values, tl.StageDuration(st).Seconds())
		}
		stacked.Groups = append(stacked.Groups, g)
		r.AddRow(row...)
		kvShare += float64(tl.StageDuration(engine.StageKVInit)) / float64(total)
		capShare += float64(tl.StageDuration(engine.StageCapture)) / float64(total)
		// The async-bubble condition of §2.4: weights loading shorter
		// than tokenizer + KV init.
		if tl.StageDuration(engine.StageWeights) <
			tl.StageDuration(engine.StageTokenizer)+tl.StageDuration(engine.StageKVInit) {
			bubbles++
		}
	}
	n := float64(len(model.Zoo()))
	r.AddNote("avg KV-init share %s (paper ≈18%%), avg capture share %s (paper ≈32%%), combined %s (paper ≈47%%)",
		pct(kvShare/n), pct(capShare/n), pct((kvShare+capShare)/n))
	r.AddNote("%d/10 models have an async bubble (weights < tokenizer+KV init); paper reports 6/10", bubbles)
	r.AddChart(stacked.Render(60))
	return r, nil
}

// figure3Models are the four models of Figure 3.
var figure3Models = []string{"Qwen1.5-0.5B", "Qwen1.5-1.8B", "Qwen1.5-4B", "Llama2-7B"}

// runFigure3 reproduces Figure 3: inference latency with and without
// CUDA graphs for the ShareGPT-average request (161 in, 338 out).
func runFigure3(c *Context) (*Report, error) {
	r := &Report{
		ID:     "fig3",
		Title:  "Acceleration brought by the CUDA graph (prompt 161, output 338)",
		Header: []string{"model", "w/ graph (s)", "w/o graph (s)", "speedup"},
	}
	maxSpeedup := 0.0
	fig3Chart := &plot.Bar{Title: "inference latency (161 in / 338 out)", Unit: "s",
		Series: []string{"w/ CUDA graph", "w/o CUDA graph"}}
	for _, name := range figure3Models {
		cfg, err := model.ByName(name)
		if err != nil {
			return nil, err
		}
		withG, err := c.Baseline(cfg)
		if err != nil {
			return nil, err
		}
		withoutG, err := c.ColdStart(cfg, engine.StrategyNoGraph, false)
		if err != nil {
			return nil, err
		}
		lat := func(inst *engine.Instance) (time.Duration, error) {
			prefill, err := inst.PrefillDuration(workload.ShareGPTMeanPrompt)
			if err != nil {
				return 0, err
			}
			step, err := inst.DecodeStepDuration(1)
			if err != nil {
				return 0, err
			}
			return prefill + time.Duration(workload.ShareGPTMeanOutput)*step, nil
		}
		a, err := lat(withG)
		if err != nil {
			return nil, err
		}
		b, err := lat(withoutG)
		if err != nil {
			return nil, err
		}
		speedup := float64(b) / float64(a)
		if speedup > maxSpeedup {
			maxSpeedup = speedup
		}
		r.AddRow(cfg.Name, secs(a), secs(b), fmt.Sprintf("%.2fx", speedup))
		fig3Chart.Groups = append(fig3Chart.Groups, plot.BarGroup{
			Label: cfg.Name, Values: []float64{a.Seconds(), b.Seconds()},
		})
	}
	r.AddChart(fig3Chart.Render(60))
	r.AddNote("max speedup %.2fx (paper: up to 2.4x)", maxSpeedup)
	r.SetMetric("max_speedup", maxSpeedup)
	return r, nil
}

// runFigure7 reproduces Figure 7: loading-phase and overall cold-start
// latency for vLLM, vLLM+ASYNC and Medusa across all ten models.
func runFigure7(c *Context) (*Report, error) {
	r := &Report{
		ID:    "fig7",
		Title: "Overall loading phase time and cold start time",
		Header: []string{"model",
			"vLLM load(s)", "ASYNC load(s)", "MEDUSA load(s)", "load cut",
			"vLLM cold(s)", "MEDUSA cold(s)", "cold cut"},
	}
	var loadCutSum, asyncCutSum, coldCutSum float64
	fig7Chart := &plot.Bar{Title: "loading phase latency", Unit: "s",
		Series: []string{"vLLM", "vLLM+ASYNC", "MEDUSA"}}
	for _, cfg := range model.Zoo() {
		vllm, err := c.Baseline(cfg)
		if err != nil {
			return nil, err
		}
		async, err := c.ColdStart(cfg, engine.StrategyVLLMAsync, false)
		if err != nil {
			return nil, err
		}
		med, err := c.ColdStart(cfg, engine.StrategyMedusa, false)
		if err != nil {
			return nil, err
		}
		lv, la, lm := vllm.LoadingDuration(), async.LoadingDuration(), med.LoadingDuration()
		coldV := engine.RuntimeInitDuration + lv
		coldM := engine.RuntimeInitDuration + lm
		loadCut := metrics.Reduction(lv, lm)
		coldCut := metrics.Reduction(coldV, coldM)
		loadCutSum += loadCut
		asyncCutSum += metrics.Reduction(la, lm)
		coldCutSum += coldCut
		r.AddRow(cfg.Name, secs(lv), secs(la), secs(lm), pct(loadCut),
			secs(coldV), secs(coldM), pct(coldCut))
		fig7Chart.Groups = append(fig7Chart.Groups, plot.BarGroup{
			Label: cfg.Name, Values: []float64{lv.Seconds(), la.Seconds(), lm.Seconds()},
		})
	}
	r.AddChart(fig7Chart.Render(60))
	n := float64(len(model.Zoo()))
	r.AddNote("avg loading reduction vs vLLM %s (paper 42.5%%), vs vLLM+ASYNC %s (paper 34.4%%)",
		pct(loadCutSum/n), pct(asyncCutSum/n))
	r.AddNote("avg cold-start reduction vs vLLM %s (paper 34.9%%)", pct(coldCutSum/n))
	r.SetMetric("avg_loading_reduction_pct", loadCutSum/n*100)
	r.SetMetric("avg_coldstart_reduction_pct", coldCutSum/n*100)
	return r, nil
}

// runFigure8 reproduces Figure 8: the stage-level breakdown of the
// three strategies on Qwen1.5-4B.
func runFigure8(c *Context) (*Report, error) {
	cfg, err := model.ByName("Qwen1.5-4B")
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "fig8",
		Title:  "Breakdown of different strategies (Qwen1.5-4B)",
		Header: []string{"strategy", "stage", "start(s)", "end(s)", "dur(s)"},
	}
	timelines := map[engine.Strategy]*trace.Timeline{}
	for _, s := range []engine.Strategy{engine.StrategyVLLM, engine.StrategyVLLMAsync, engine.StrategyMedusa} {
		var inst *engine.Instance
		if s == engine.StrategyVLLM {
			inst, err = c.Baseline(cfg)
		} else {
			inst, err = c.ColdStart(cfg, s, false)
		}
		if err != nil {
			return nil, err
		}
		timelines[s] = inst.Timeline()
		var rows []plot.GanttRow
		for _, st := range inst.Timeline().Stages() {
			r.AddRow(s.String(), st.Name, secs(st.Start), secs(st.End), secs(st.Duration()))
			rows = append(rows, plot.GanttRow{Label: st.Name, Start: st.Start.Seconds(), End: st.End.Seconds()})
		}
		r.AddRow(s.String(), "TOTAL", "", "", secs(inst.LoadingDuration()))
		r.AddChart(plot.Gantt(s.String(), rows, 58))
	}
	v := timelines[engine.StrategyVLLM].Total()
	a := timelines[engine.StrategyVLLMAsync].Total()
	m := timelines[engine.StrategyMedusa].Total()
	r.AddNote("ASYNC reduces loading by %s vs vLLM (paper 13.0%%)", pct(metrics.Reduction(v, a)))
	r.AddNote("MEDUSA reduces loading by %s vs vLLM (paper 41.4%%) and %s vs ASYNC (paper 32.7%%)",
		pct(metrics.Reduction(v, m)), pct(metrics.Reduction(a, m)))
	r.AddNote("MEDUSA KV-init %ss (paper 0.50→0.02s), capture/restore %ss (paper 0.90→0.57s)",
		secs(timelines[engine.StrategyMedusa].StageDuration(engine.StageKVInit)),
		secs(timelines[engine.StrategyMedusa].StageDuration(engine.StageCapture)))
	return r, nil
}

// runFigure9 reproduces Figure 9: offline-phase overhead per model.
func runFigure9(c *Context) (*Report, error) {
	r := &Report{
		ID:     "fig9",
		Title:  "Overhead of the offline phase",
		Header: []string{"model", "capturing (s)", "analysis (s)", "total (s)", "artifact (MB)"},
	}
	// The per-model offline phases are independent: fan them out before
	// tabulating (the seeds, and hence the artifacts, match a sequential
	// run).
	if err := c.PrefetchArtifacts(model.Zoo()); err != nil {
		return nil, err
	}
	var capSum, totalSum time.Duration
	for _, cfg := range model.Zoo() {
		_, _, report, err := c.Artifact(cfg)
		if err != nil {
			return nil, err
		}
		capSum += report.CaptureStageDuration
		totalSum += report.Total()
		r.AddRow(cfg.Name,
			secs(report.CaptureStageDuration),
			secs(report.AnalysisDuration),
			secs(report.Total()),
			fmt.Sprintf("%.2f", float64(report.ArtifactBytes)/(1<<20)))
	}
	n := time.Duration(len(model.Zoo()))
	r.AddNote("avg capturing stage %ss (paper ≈9.7s), avg total %ss (paper ≈39.2s, <1 min)",
		secs(capSum/n), secs(totalSum/n))
	return r, nil
}
