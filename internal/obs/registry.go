package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// metricKind distinguishes the three metric families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Labels attach dimensions to a metric sample. Keys and values must not
// contain '"' or '\n'; the registry renders them sorted by key, so two
// equal label sets always produce the same series.
type Labels map[string]string

// render produces the canonical `k1="v1",k2="v2"` block (no braces):
// keys sorted, each value quoted as strconv.Quote does (fmt's %q on a
// string). Label sets have a handful of keys, so the keys and the
// block are gathered in stack buffers and the block string is the only
// allocation.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	var keyBuf [4]string
	keys := keyBuf[:0]
	for k := range l {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var buf [128]byte
	b := buf[:0]
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l[k])
	}
	return string(b)
}

// family is one declared metric: name, help text, kind, and (for
// histograms) the fixed bucket layout.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64
}

// histogram is one labeled series of a histogram family. Buckets are
// cumulative at export time but stored as per-bucket counts.
type histogram struct {
	buckets []float64 // upper bounds, ascending; implicit +Inf at the end
	counts  []uint64  // len(buckets)+1
	count   uint64
	sum     float64
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
}

// Registry is the mergeable metrics store: counters, gauges and
// fixed-bucket histograms keyed by (family, label set). Merging two
// registries adds counters and histograms and overwrites gauges, so
// per-trial registries folded in trial order give worker-count-
// independent aggregates (see Sink).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	counters map[string]map[string]float64    // family -> label block -> value
	gauges   map[string]map[string]float64    // family -> label block -> value
	hists    map[string]map[string]*histogram // family -> label block -> series
}

// NewRegistry returns an empty registry. Most callers want
// NewAIOpsRegistry, which pre-declares the §3 metric families.
func NewRegistry() *Registry {
	return &Registry{
		families: map[string]*family{},
		counters: map[string]map[string]float64{},
		gauges:   map[string]map[string]float64{},
		hists:    map[string]map[string]*histogram{},
	}
}

// DeclareCounter registers a counter family with help text.
func (r *Registry) DeclareCounter(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families[name] = &family{name: name, help: help, kind: kindCounter}
}

// DeclareGauge registers a gauge family with help text.
func (r *Registry) DeclareGauge(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families[name] = &family{name: name, help: help, kind: kindGauge}
}

// DeclareHistogram registers a histogram family with a fixed bucket
// layout (ascending upper bounds; +Inf is implicit). Fixed layouts are
// what make histogram merges associative, and so what makes fleet-level
// aggregation worker-count-independent.
func (r *Registry) DeclareHistogram(name, help string, buckets []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families[name] = &family{name: name, help: help, kind: kindHistogram, buckets: append([]float64(nil), buckets...)}
}

// ensure returns the family, implicitly declaring one of the given kind
// for undeclared names (with default buckets for histograms).
func (r *Registry) ensure(name string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind}
		if kind == kindHistogram {
			f.buckets = DefaultBuckets
		}
		r.families[name] = f
	}
	return f
}

// DefaultBuckets is the fallback histogram layout (minutes-scaled).
var DefaultBuckets = []float64{0.5, 1, 2, 5, 10, 20, 45, 90, 180, 360}

// Inc adds v to a counter series.
func (r *Registry) Inc(name string, labels Labels, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensure(name, kindCounter)
	m := r.counters[name]
	if m == nil {
		m = map[string]float64{}
		r.counters[name] = m
	}
	m[labels.render()] += v
}

// Set sets a gauge series to v.
func (r *Registry) Set(name string, labels Labels, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ensure(name, kindGauge)
	m := r.gauges[name]
	if m == nil {
		m = map[string]float64{}
		r.gauges[name] = m
	}
	m[labels.render()] = v
}

// Observe records v into a histogram series.
func (r *Registry) Observe(name string, labels Labels, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.ensure(name, kindHistogram)
	m := r.hists[name]
	if m == nil {
		m = map[string]*histogram{}
		r.hists[name] = m
	}
	key := labels.render()
	h := m[key]
	if h == nil {
		h = &histogram{buckets: f.buckets, counts: make([]uint64, len(f.buckets)+1)}
		m[key] = h
	}
	h.observe(v)
}

// Merge folds o into r: counters and histogram series add, gauges
// overwrite (last writer wins — gauges are meant for serial, top-level
// writers like the fleet simulator). Histogram families must share
// bucket layouts; merging mismatched layouts panics, because silently
// re-bucketing would corrupt the fixed-layout contract.
func (r *Registry) Merge(o *Registry) {
	if o == nil || o == r {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, f := range o.families {
		if _, ok := r.families[name]; !ok {
			r.families[name] = f
		}
	}
	for name, m := range o.counters {
		dst := r.counters[name]
		if dst == nil {
			dst = map[string]float64{}
			r.counters[name] = dst
		}
		for k, v := range m {
			dst[k] += v
		}
	}
	for name, m := range o.gauges {
		dst := r.gauges[name]
		if dst == nil {
			dst = map[string]float64{}
			r.gauges[name] = dst
		}
		for k, v := range m {
			dst[k] = v
		}
	}
	for name, m := range o.hists {
		dst := r.hists[name]
		if dst == nil {
			dst = map[string]*histogram{}
			r.hists[name] = dst
		}
		for k, oh := range m {
			h := dst[k]
			if h == nil {
				h = &histogram{buckets: oh.buckets, counts: make([]uint64, len(oh.counts))}
				dst[k] = h
			}
			if len(h.counts) != len(oh.counts) {
				panic("obs: merging histograms with different bucket layouts: " + name)
			}
			for i, c := range oh.counts {
				h.counts[i] += c
			}
			h.count += oh.count
			h.sum += oh.sum
		}
	}
}

// formatFloat renders a value the same way every time (shortest exact
// representation), keeping exports byte-stable.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders the registry in the Prometheus text exposition
// format, families sorted by name and series sorted by label block, so
// identical registries always serialize to identical bytes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		f := r.families[name]
		hasSeries := len(r.counters[name]) > 0 || len(r.gauges[name]) > 0 || len(r.hists[name]) > 0
		if !hasSeries {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.kind); err != nil {
			return err
		}
		switch f.kind {
		case kindCounter, kindGauge:
			m := r.counters[name]
			if f.kind == kindGauge {
				m = r.gauges[name]
			}
			for _, key := range sortedKeys(m) {
				if err := writeSeries(w, name, key, m[key]); err != nil {
					return err
				}
			}
		case kindHistogram:
			m := r.hists[name]
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, key := range keys {
				h := m[key]
				var cum uint64
				for i, bound := range h.buckets {
					cum += h.counts[i]
					le := formatFloat(bound)
					if err := writeSeries(w, name+"_bucket", joinLabels(key, `le=`+strconv.Quote(le)), float64(cum)); err != nil {
						return err
					}
				}
				cum += h.counts[len(h.buckets)]
				if err := writeSeries(w, name+"_bucket", joinLabels(key, `le="+Inf"`), float64(cum)); err != nil {
					return err
				}
				if err := writeSeries(w, name+"_sum", key, h.sum); err != nil {
					return err
				}
				if err := writeSeries(w, name+"_count", key, float64(h.count)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func joinLabels(block, extra string) string {
	if block == "" {
		return extra
	}
	return block + "," + extra
}

func writeSeries(w io.Writer, name, labelBlock string, v float64) error {
	if labelBlock == "" {
		_, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
		return err
	}
	_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, labelBlock, formatFloat(v))
	return err
}
