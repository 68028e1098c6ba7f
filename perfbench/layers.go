package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// Layers are named after the repo's modules. Every package under
// internal/ maps to exactly one layer (layers_test.go enforces this), so
// a new package fails the self-test instead of vanishing into a bucket.
const (
	layerCPU      = "cpu"
	layerCache    = "cache"
	layerDRAM     = "dram"
	layerMem      = "mem"
	layerTrackers = "trackers"
	layerTaps     = "taps"
	layerSim      = "sim"
	layerHarness  = "harness"
	layerExp      = "exp"
	layerTrace    = "trace"
	layerRuntime  = "runtime"
)

var layerOrder = []string{
	layerCPU, layerCache, layerDRAM, layerMem, layerTrackers, layerTaps,
	layerSim, layerHarness, layerExp, layerTrace, layerRuntime,
}

const internalPrefix = "dapper/internal/"

// packageLayer maps each internal package (path below internal/) to its
// layer. Packages that never run inside a benchmark process (the lint
// analyzers, test helpers, the HTTP service) are still mapped, to the
// layer they would load if linked.
var packageLayer = map[string]string{
	"cpu":   layerCPU,
	"cache": layerCache,
	"dram":  layerDRAM,
	"mem":   layerMem,

	"core":                 layerTrackers,
	"llbc":                 layerTrackers,
	"sketch":               layerTrackers,
	"flatmap":              layerTrackers,
	"rh":                   layerTrackers,
	"trackers/abacus":      layerTrackers,
	"trackers/blockhammer": layerTrackers,
	"trackers/comet":       layerTrackers,
	"trackers/hydra":       layerTrackers,
	"trackers/para":        layerTrackers,
	"trackers/prac":        layerTrackers,
	"trackers/start":       layerTrackers,

	"telemetry": layerTaps,
	"secaudit":  layerTaps,
	"diag":      layerTaps,

	"sim": layerSim,

	"harness": layerHarness,
	"serve":   layerHarness,

	"exp":                   layerExp,
	"stats":                 layerExp,
	"analytic":              layerExp,
	"energy":                layerExp,
	"mix":                   layerExp,
	"adversary":             layerExp,
	"analysis":              layerExp,
	"analysis/analysistest": layerExp,
	"analysis/load":         layerExp,
	"goldentest":            layerExp,

	"workloads": layerTrace,
	"attack":    layerTrace,
}

// funcPackage returns the import path of a Go symbol name such as
// "dapper/internal/mem.(*Controller).earliestReady".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layerOf folds one sample's stack (innermost frame first) to a layer: the
// innermost dapper/internal frame decides, so runtime helpers such as
// duffcopy count against the repo function that called them. A stack
// with no repo frame (GC workers, the scheduler) is runtime.
func layerOf(stack []string) (string, error) {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, internalPrefix) {
			continue
		}
		pkg := strings.TrimPrefix(funcPackage(fn), internalPrefix)
		l, ok := packageLayer[pkg]
		if !ok {
			return "", fmt.Errorf("package dapper/internal/%s has no layer", pkg)
		}
		return l, nil
	}
	return layerRuntime, nil
}

// foldProfile folds a CPU profile file into each layer's share of the
// sampled CPU time. The toolchain's own pprof reads the profile
// (go tool pprof -traces); tmpDir is its scratch directory.
func foldProfile(path, tmpDir string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+tmpDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	return foldTraces(string(out))
}

// foldTraces folds the output of pprof -traces. Each sample's block is a
// separator line, then the first frame after its weight (a duration such
// as "10ms"), then the callers, innermost first.
func foldTraces(text string) (map[string]float64, error) {
	byLayer := make(map[string]float64)
	total := 0.0
	var stack []string
	var weight time.Duration
	flush := func() error {
		if len(stack) == 0 {
			return nil
		}
		l, err := layerOf(stack)
		if err != nil {
			return err
		}
		byLayer[l] += weight.Seconds()
		total += weight.Seconds()
		stack = stack[:0]
		return nil
	}
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "-----------+"):
			if err := flush(); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, " ") && strings.TrimSpace(line) != "":
			f := strings.Fields(line)
			if len(stack) == 0 {
				w, err := time.ParseDuration(f[0])
				if err != nil {
					return nil, fmt.Errorf("pprof traces: weight in %q: %w", line, err)
				}
				weight, f = w, f[1:]
			}
			if len(f) > 0 {
				stack = append(stack, f[0])
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	out := make(map[string]float64, len(layerOrder))
	for _, l := range layerOrder {
		out[l] = byLayer[l] / total
	}
	return out, nil
}

// interval is a span on one time axis, in seconds.
type interval struct{ start, end float64 }

// selfTime is the parent's duration minus the part of it that the union of
// its children covers.
func selfTime(parent interval, children []interval) float64 {
	var in []interval
	for _, c := range children {
		s, e := math.Max(c.start, parent.start), math.Min(c.end, parent.end)
		if e > s {
			in = append(in, interval{s, e})
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].start < in[j].start })
	covered, curS, curE := 0.0, 0.0, math.Inf(-1)
	for _, c := range in {
		if c.start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
		} else if c.end > curE {
			curE = c.end
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return (parent.end - parent.start) - covered
}

// median of a sample; NaN when empty.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile (0-100) by linear interpolation
// between closest ranks, as Python's statistics.quantiles does with the
// "inclusive" method.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile picks the highest of the usual percentiles that still
// has at least ten samples beyond it; below 20 samples that is the median.
func tailPercentile(n int) float64 {
	best := 500 // per mille
	for _, p := range []int{750, 900, 950, 990, 999} {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}
