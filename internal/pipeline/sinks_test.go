package pipeline

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestRingRetainsNewest(t *testing.T) {
	r := NewRing(3)
	if err := r.Write([]Sample{{Value: 1}, {Value: 2}}); err != nil {
		t.Fatal(err)
	}
	if got := r.Samples(0); len(got) != 2 || got[0].Value != 1 || got[1].Value != 2 {
		t.Fatalf("partial ring = %+v", got)
	}
	if err := r.Write([]Sample{{Value: 3}, {Value: 4}, {Value: 5}}); err != nil {
		t.Fatal(err)
	}
	got := r.Samples(0)
	if len(got) != 3 || got[0].Value != 3 || got[1].Value != 4 || got[2].Value != 5 {
		t.Fatalf("wrapped ring = %+v, want newest three oldest-first", got)
	}
	if got := r.Samples(2); len(got) != 2 || got[0].Value != 4 || got[1].Value != 5 {
		t.Fatalf("Samples(2) = %+v, want the newest two oldest-first", got)
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Errorf("Len=%d Total=%d, want 3/5", r.Len(), r.Total())
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if len(r.Samples(0)) != 3 {
		t.Error("ring not readable after Close")
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	_ = r.Write([]Sample{{Value: 1}, {Value: 2}})
	if got := r.Samples(0); len(got) != 1 || got[0].Value != 2 {
		t.Errorf("zero-capacity ring = %+v, want just the newest sample", got)
	}
}

func TestNDJSONRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewNDJSON(&buf)
	in := []Sample{
		{Family: "pupil_power_watts", Node: "n1", SimS: 1.5, Value: 96.5},
		{Family: "pupil_power_watts", Node: "n1", Zone: "package_0", SimS: 1.5, Value: 48},
	}
	if err := sink.Write(in); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %q", lines)
	}
	for i, line := range lines {
		var got Sample
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got != in[i] {
			t.Errorf("line %d = %+v, want %+v", i, got, in[i])
		}
	}
	// Empty labels are omitted from the wire format.
	if strings.Contains(lines[0], "zone") || strings.Contains(lines[0], "cluster") {
		t.Errorf("node-level sample carries empty labels: %q", lines[0])
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

// closeRecorder observes whether a sink closed its underlying writer.
type closeRecorder struct {
	bytes.Buffer
	closed bool
}

func (c *closeRecorder) Close() error {
	c.closed = true
	return nil
}

func TestNDJSONClosesUnderlyingWriter(t *testing.T) {
	rec := &closeRecorder{}
	sink := NewNDJSON(rec)
	if err := sink.Write([]Sample{{Family: "f", Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !rec.closed {
		t.Error("Close did not close the underlying writer")
	}
	if !strings.Contains(rec.String(), `"family":"f"`) {
		t.Errorf("Close did not flush the buffer: %q", rec.String())
	}
}

func TestCSVHeaderAndRows(t *testing.T) {
	rec := &closeRecorder{}
	sink := NewCSV(rec)
	if err := sink.Write([]Sample{
		{Family: "pupil_power_watts", Node: "n1", SimS: 2.5, Value: 96.5},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Write([]Sample{
		{Family: "pupil_power_watts", Cluster: "c1", Node: `comma,node`, Zone: "package_0", SimS: 3, Value: 48},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Write([]Sample{
		{Family: "pupil_cluster_node_health", Cluster: "c1", Node: "n0", State: "quarantined", SimS: 4, Value: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !rec.closed {
		t.Error("Close did not close the underlying writer")
	}
	rows, err := csv.NewReader(strings.NewReader(rec.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"sim_s", "family", "cluster", "domain", "node", "state", "zone", "value"},
		{"2.5", "pupil_power_watts", "", "", "n1", "", "", "96.5"},
		{"3", "pupil_power_watts", "c1", "", "comma,node", "", "package_0", "48"},
		{"4", "pupil_cluster_node_health", "c1", "", "n0", "quarantined", "", "2"},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %q", rows)
	}
	for i := range want {
		for j := range want[i] {
			if rows[i][j] != want[i][j] {
				t.Errorf("row %d col %d = %q, want %q", i, j, rows[i][j], want[i][j])
			}
		}
	}
}

// errWriter fails after n bytes, for surfacing CSV flush errors.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestCSVFlushSurfacesWriteError(t *testing.T) {
	sink := NewCSV(&errWriter{n: 0})
	if err := sink.Write([]Sample{{Family: "f", Value: 1}}); err != nil {
		t.Fatal(err) // buffered; the error surfaces on flush
	}
	if err := sink.Flush(); err == nil {
		t.Error("Flush swallowed the write error")
	}
}
