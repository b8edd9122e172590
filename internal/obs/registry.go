package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. {cluster, "3"} or {src, "0"}).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key string, value any) Label {
	return Label{Key: key, Value: fmt.Sprintf("%v", value)}
}

// renderLabels formats labels Prometheus-style: {a="1",b="2"} ("" when
// empty). Labels are sorted by key so the identity of a metric never
// depends on argument order.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing atomic counter. A nil Counter
// (from a nil registry) no-ops at the cost of one branch.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Load returns the current value (0 for nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram: Observe(v) counts v
// into the first bucket whose upper bound is >= v, with an implicit +Inf
// bucket. Bounds are fixed at registration, so observation is one binary
// search plus two atomic adds.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, exclusive of +Inf
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // sum of observed values, rounded to uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	if v > 0 {
		h.sum.Add(uint64(v))
	}
}

// Buckets returns the bucket upper bounds and their counts; the final
// entry is the +Inf bucket (bound math.Inf(1)).
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = append(append([]float64(nil), h.bounds...), math.Inf(1))
	counts = make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return bounds, counts
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (integer-rounded).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// metric is one registered instrument.
type metric struct {
	name    string
	labels  string // rendered
	help    string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	sample  func() float64 // sampled gauge
}

func (m *metric) key() string { return m.name + m.labels }

// Registry holds the run's instruments. Registration takes a lock;
// the instruments themselves are lock-free. All registration methods
// are idempotent on (name, labels) and nil-safe (a nil registry vends
// nil instruments, which no-op).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []*metric // registration order, for stable snapshots
}

func newRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// register installs m unless a metric with the same key exists, in which
// case the existing one is returned.
func (r *Registry) register(m *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.metrics[m.key()]; ok {
		return prev
	}
	r.metrics[m.key()] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or returns the existing) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(&metric{name: name, labels: renderLabels(labels), help: help, counter: &Counter{}})
	return m.counter
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(&metric{name: name, labels: renderLabels(labels), help: help, gauge: &Gauge{}})
	return m.gauge
}

// Histogram registers (or returns the existing) fixed-bucket histogram.
// Bounds must be sorted ascending; they are copied.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	m := r.register(&metric{name: name, labels: renderLabels(labels), help: help, hist: h})
	return m.hist
}

// SampleFunc registers a sampled gauge: fn is invoked at snapshot time.
// fn must be safe to call from any goroutine at any point of the run
// (read atomics, not plain fields).
func (r *Registry) SampleFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&metric{name: name, labels: renderLabels(labels), help: help, sample: fn})
}

// Sample is one metric value at snapshot time.
type Sample struct {
	Name   string
	Labels string // rendered {k="v",...} or ""
	Value  float64
}

// Snapshot is the registry state at one instant. Histograms contribute
// one sample per bucket (suffix _bucket with an le label) plus _count
// and _sum, mirroring the Prometheus exposition shape. Samples are in
// exposition order: by family name, then sample name, then labels, a
// histogram's buckets by ascending bound with +Inf last. Families carries
// the per-family type and help metadata and each family's window of
// Samples, so a snapshot is self-describing — the property the
// Prometheus writer relies on.
type Snapshot struct {
	Families []Family // sorted by Name, one entry per metric family
	Samples  []Sample // in exposition order
}

// Kind classifies a metric family for exposition typing.
type Kind byte

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Family is one metric family's metadata: the base name (histogram
// samples carry suffixed names), its help string, and its type.
type Family struct {
	Name string
	Help string
	Kind Kind
	// Samples is the family's run of Snapshot.Samples.
	Samples []Sample
}

// Get returns the value of the sample with the given name and rendered
// labels ("" for none), and whether it was present.
func (s Snapshot) Get(name, labels string) (float64, bool) {
	for _, sm := range s.Samples {
		if sm.Name == name && sm.Labels == labels {
			return sm.Value, true
		}
	}
	return 0, false
}

// Snapshot reads every instrument. Values come from atomics and sampled
// funcs only, so it is safe mid-run; samples and families are sorted so
// equal registry states render identically regardless of registration
// interleaving.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	ms := make([]*metric, len(r.order))
	copy(ms, r.order)
	r.mu.Unlock()

	// Each sample keeps its family, its metric's labels and its bucket
	// bound as sort keys, so no rendered label set is parsed back.
	type keyed struct {
		fam, labels string
		le          float64
		s           Sample
	}
	var ks []keyed
	add := func(m *metric, name string, v float64) {
		ks = append(ks, keyed{fam: m.name, labels: m.labels, s: Sample{Name: name, Labels: m.labels, Value: v}})
	}
	for _, m := range ms {
		switch {
		case m.counter != nil:
			add(m, m.name, float64(m.counter.Load()))
		case m.gauge != nil:
			add(m, m.name, float64(m.gauge.Load()))
		case m.sample != nil:
			add(m, m.name, m.sample())
		case m.hist != nil:
			bounds, counts := m.hist.Buckets()
			cum := uint64(0)
			for i := range bounds {
				cum += counts[i]
				le := "+Inf"
				if !math.IsInf(bounds[i], 1) {
					le = trimFloat(bounds[i])
				}
				ks = append(ks, keyed{fam: m.name, labels: m.labels, le: bounds[i], s: Sample{
					Name:   m.name + "_bucket",
					Labels: mergeLabel(m.labels, "le", le),
					Value:  float64(cum),
				}})
			}
			add(m, m.name+"_count", float64(m.hist.Count()))
			add(m, m.name+"_sum", float64(m.hist.Sum()))
		}
	}
	sort.Slice(ks, func(i, j int) bool {
		a, b := &ks[i], &ks[j]
		switch {
		case a.fam != b.fam:
			return a.fam < b.fam
		case a.s.Name != b.s.Name:
			return a.s.Name < b.s.Name
		case a.labels != b.labels:
			return a.labels < b.labels
		}
		return a.le < b.le
	})
	out := make([]Sample, len(ks))
	for i := range ks {
		out[i] = ks[i].s
	}
	fams := familiesOf(ms)
	for f, i := 0, 0; f < len(fams); f++ {
		j := i
		for j < len(ks) && ks[j].fam == fams[f].Name {
			j++
		}
		fams[f].Samples = out[i:j:j]
		i = j
	}
	return Snapshot{Families: fams, Samples: out}
}

// familiesOf derives the sorted family metadata of a metric list. The
// help of a family is the lexicographically smallest non-empty help
// registered under its name, so the choice never depends on
// registration order.
func familiesOf(ms []*metric) []Family {
	byName := make(map[string]Family, len(ms))
	for _, m := range ms {
		kind := KindGauge
		switch {
		case m.counter != nil:
			kind = KindCounter
		case m.hist != nil:
			kind = KindHistogram
		}
		f, ok := byName[m.name]
		if !ok {
			byName[m.name] = Family{Name: m.name, Help: m.help, Kind: kind}
			continue
		}
		if betterHelp(m.help, f.Help) {
			f.Help = m.help
			byName[m.name] = f
		}
	}
	out := make([]Family, 0, len(byName))
	for _, f := range byName {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// betterHelp reports whether candidate should replace current as a
// family's help: any help beats none, then smallest byte order wins —
// a registration-order-free tie break for series that disagree.
func betterHelp(candidate, current string) bool {
	if candidate == "" {
		return false
	}
	return current == "" || candidate < current
}

// mergeLabel inserts one extra label into an already-rendered label set.
func mergeLabel(rendered, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

// trimFloat renders a float compactly (8 → "8", 2.5 → "2.5").
func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
