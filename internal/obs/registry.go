package obs

import (
	"fmt"
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

// metric is one registered instrument.
type metric struct {
	name    string
	labels  string // rendered
	help    string
	counter *Counter
	gauge   *Gauge
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

// Snapshot is the registry state at one instant: one sample per metric.
// Samples are in exposition order: by name, then labels. Families carries
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
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "untyped"
	}
}

// Family is one metric family's metadata: its name, help string and
// type.
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

	out := make([]Sample, len(ms))
	for i, m := range ms {
		v := 0.0
		switch {
		case m.counter != nil:
			v = float64(m.counter.Load())
		case m.gauge != nil:
			v = float64(m.gauge.Load())
		case m.sample != nil:
			v = m.sample()
		}
		out[i] = Sample{Name: m.name, Labels: m.labels, Value: v}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Labels < b.Labels
	})
	fams := familiesOf(ms)
	for f, i := 0, 0; f < len(fams); f++ {
		j := i
		for j < len(out) && out[j].Name == fams[f].Name {
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
		if m.counter != nil {
			kind = KindCounter
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
