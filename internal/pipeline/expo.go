package pipeline

import (
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// ContentType is the Prometheus text exposition content type served by
// the exposition page's HTTP handler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Exposition renders samples in the Prometheus text exposition format
// (version 0.0.4): one HELP/TYPE header per family followed by its
// samples, labels escaped per the exposition rules. Registered Collectors
// are gathered on every WriteTo, so the page always shows live values —
// there is no store to drift out of sync.
type Exposition struct {
	mu        sync.Mutex
	gatherers []Collector
	scratch   []Sample
}

// NewExposition returns an empty exposition page.
func NewExposition() *Exposition { return &Exposition{} }

// AddGatherer registers a collector run live on every render. Gatherers
// render in registration order.
func (e *Exposition) AddGatherer(c Collector) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gatherers = append(e.gatherers, c)
}

// WriteTo renders the full page: every gatherer in registration order,
// with headers even for families that have no samples.
func (e *Exposition) WriteTo(w io.Writer) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var buf []byte
	emitted := make(map[string]bool)
	for _, g := range e.gatherers {
		fams := g.Families()
		e.scratch = g.Collect(e.scratch[:0])
		for _, f := range fams {
			if !emitted[f.Name] {
				buf = appendHeader(buf, f)
				emitted[f.Name] = true
			}
			for _, s := range e.scratch {
				if s.Family == f.Name {
					buf = appendSample(buf, s)
				}
			}
		}
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ServeHTTP serves the page with the exposition content type.
func (e *Exposition) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ContentType)
	_, _ = e.WriteTo(w)
}

func appendHeader(buf []byte, f MetricFamily) []byte {
	buf = append(buf, "# HELP "...)
	buf = append(buf, f.Name...)
	if f.Help != "" {
		buf = append(buf, ' ')
		buf = appendEscapedHelp(buf, f.Help)
	}
	buf = append(buf, '\n')
	buf = append(buf, "# TYPE "...)
	buf = append(buf, f.Name...)
	buf = append(buf, ' ')
	buf = append(buf, f.Kind.String()...)
	buf = append(buf, '\n')
	return buf
}

func appendSample(buf []byte, s Sample) []byte {
	buf = append(buf, s.Family...)
	buf = appendLabels(buf, s)
	buf = append(buf, ' ')
	buf = appendValue(buf, s.Value)
	buf = append(buf, '\n')
	return buf
}

// appendLabels serializes the non-empty labels in fixed cluster, domain,
// node, state, zone, sink order (matching the pre-pipeline exporter's
// byte layout; domain only appears on hierarchical-coordination families
// and state only on fleet health families).
func appendLabels(buf []byte, s Sample) []byte {
	labels := [...]struct{ k, v string }{
		{"cluster", s.Cluster},
		{"domain", s.Domain},
		{"node", s.Node},
		{"state", s.State},
		{"zone", s.Zone},
		{"sink", s.Sink},
	}
	open := false
	for _, l := range labels {
		if l.v == "" {
			continue
		}
		if !open {
			buf = append(buf, '{')
			open = true
		} else {
			buf = append(buf, ',')
		}
		buf = append(buf, l.k...)
		buf = append(buf, '=', '"')
		buf = appendEscapedLabel(buf, l.v)
		buf = append(buf, '"')
	}
	if open {
		buf = append(buf, '}')
	}
	return buf
}

// appendValue renders integral values in plain notation (counters stay
// "1000000", never "1e+06") and everything else in Go's shortest %g form,
// matching the pre-pipeline exporter's %d/%g split.
func appendValue(buf []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendFloat(buf, v, 'f', -1, 64)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// appendEscapedLabel escapes a label value per the exposition format:
// backslash, double-quote, and newline.
func appendEscapedLabel(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '"':
			buf = append(buf, '\\', '"')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return buf
}

// appendEscapedHelp escapes help text: backslash and newline (quotes are
// legal in help).
func appendEscapedHelp(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, c)
		}
	}
	return buf
}

// UnescapeLabel inverts appendEscapedLabel; unknown escapes and a
// trailing backslash pass through literally. It exists for tests and
// consumers reading exposition output back.
func UnescapeLabel(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 == len(s) {
			out = append(out, s[i])
			continue
		}
		i++
		switch s[i] {
		case '\\':
			out = append(out, '\\')
		case '"':
			out = append(out, '"')
		case 'n':
			out = append(out, '\n')
		default:
			out = append(out, '\\', s[i])
		}
	}
	return string(out)
}
