package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// median of xs (the mean of the middle two for an even count); 0 when
// empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of a sample that still has at least
// ten samples above it, with its value. Nearest-rank: percentile p is
// the k-th smallest sample, k = ceil(p/100 * n), so choosing k = n-10
// leaves exactly ten samples beyond it and p = 100*k/n. ok is false
// when the sample has ten values or fewer.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	if n <= 10 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 10
	return 100 * float64(k) / float64(n), s[k-1], true
}

// statsDigest fingerprints a full statistics set: every counter and
// every scalar (bit-exact), in name order.
func statsDigest(st *stats.Set) string {
	h := sha256.New()
	for _, n := range st.Names() {
		fmt.Fprintf(h, "c %s %d\n", n, st.Counter(n))
	}
	for _, n := range st.ScalarNames() {
		fmt.Fprintf(h, "s %s %x\n", n, math.Float64bits(st.Scalar(n)))
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// interval is a span's [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of its interval covered
// by the union of its children's intervals. Children are clipped to the
// parent; overlapping children count once.
func selfTime(parent interval, children []interval) int64 {
	var cs []interval
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// pprofUnits maps the duration suffixes `go tool pprof -top` prints to
// seconds.
var pprofUnits = map[string]float64{
	"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1,
	"mins": 60, "hrs": 3600,
}

// parsePprofDuration reads one value of a -top table, such as "1.25s",
// "30ms" or a bare "0".
func parsePprofDuration(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	i := strings.IndexFunc(s, func(r rune) bool {
		return !(r >= '0' && r <= '9' || r == '.')
	})
	if i <= 0 {
		return 0, fmt.Errorf("no unit in %q", s)
	}
	scale, ok := pprofUnits[s[i:]]
	if !ok {
		return 0, fmt.Errorf("unknown unit in %q", s)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, err
	}
	return v * scale, nil
}

// funcPackage is the last element of a profiled function's package
// path: "repro/internal/noc.(*Mesh).Step" gives "noc".
func funcPackage(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	fn = fn[strings.LastIndex(fn, "/")+1:]
	if i := strings.Index(fn, "."); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

// packageShares aggregates the flat column of a `go tool pprof -top`
// listing by package and returns each package's share of all flat time.
func packageShares(top string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(strings.NewReader(top))
	header := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		v, err := parsePprofDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %w", sc.Text(), err)
		}
		name := strings.Join(fields[5:], " ")
		flat[funcPackage(name)] += v
		total += v
	}
	if !header {
		return nil, fmt.Errorf("pprof -top output has no table header")
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top output holds no samples")
	}
	for k, v := range flat {
		flat[k] = v / total
	}
	return flat, nil
}

// vmHWM reads a process's peak resident set size, in MiB, from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
