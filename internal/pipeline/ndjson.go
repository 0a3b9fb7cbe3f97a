package pipeline

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// NDJSON is a sink serializing each sample as one JSON object per line,
// buffered; Flush forces the buffer down, Close flushes and closes the
// underlying writer when it is an io.Closer. It backs pupild's file
// telemetry (-telemetry-ndjson) and any stream fed from the router.
type NDJSON struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer
}

// NewNDJSON returns an NDJSON sink over w.
func NewNDJSON(w io.Writer) *NDJSON {
	bw := bufio.NewWriter(w)
	n := &NDJSON{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		n.c = c
	}
	return n
}

// Write implements Sink.
func (n *NDJSON) Write(batch []Sample) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range batch {
		if err := n.enc.Encode(&batch[i]); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements Sink.
func (n *NDJSON) Flush() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.bw.Flush()
}

// Close flushes and closes the underlying writer if it is closable.
func (n *NDJSON) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	err := n.bw.Flush()
	if n.c != nil {
		if cerr := n.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
