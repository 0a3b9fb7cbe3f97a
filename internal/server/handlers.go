package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"pupil/internal/telemetry"
)

// The API's handlers are built from the generic pieces below, shared by
// both resource kinds: a route resolves {id} through a registry lookup
// (404), decodes one strict JSON body (400), applies the change, and
// answers with the resource's view. Method values plug straight in —
// (*Node).Status, (*Cluster).InjectFault, mgr.Delete.

// decodeStrict decodes exactly one JSON value from r into v: unknown fields
// and trailing data after the value are both rejected, so a request body is
// either the documented shape in full or a 400.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		if err == nil {
			return errors.New("unexpected data after JSON body")
		}
		return err
	}
	return nil
}

// finder resolves the resource a request names, answering the request
// itself when it cannot.
type finder[T any] func(w http.ResponseWriter, r *http.Request) (T, bool)

// find resolves {id} through a registry lookup; an unknown ID is a 404.
func find[T any](get func(id string) (T, bool)) finder[T] {
	return func(w http.ResponseWriter, r *http.Request) (T, bool) {
		id := r.PathValue("id")
		v, ok := get(id)
		if !ok {
			writeError(w, fmt.Errorf("%w: %s", ErrNotFound, id))
		}
		return v, ok
	}
}

// clusterNode is one node of a cluster, by index.
type clusterNode struct {
	*Cluster
	index int
}

// findClusterNode resolves {id} to a cluster, then {index} to a node
// index: an unknown cluster is a 404 before a malformed index is a 400.
// Whether the index exists is the cluster's to answer.
func findClusterNode(cluster finder[*Cluster]) finder[clusterNode] {
	return func(w http.ResponseWriter, r *http.Request) (clusterNode, bool) {
		c, ok := cluster(w, r)
		if !ok {
			return clusterNode{}, false
		}
		i, err := strconv.Atoi(r.PathValue("index"))
		if err != nil {
			writeError(w, fmt.Errorf("%w: bad node index %q", ErrBadConfig, r.PathValue("index")))
			return clusterNode{}, false
		}
		return clusterNode{c, i}, true
	}
}

// create decodes a configuration, builds a resource from it, and answers
// 201 with the resource's view.
func create[C, T, V any](build func(C) (T, error), view func(T) V) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var cfg C
		if err := decodeStrict(r.Body, &cfg); err != nil {
			writeError(w, fmt.Errorf("%w: %v", ErrBadConfig, err))
			return
		}
		v, err := build(cfg)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, view(v))
	}
}

// list answers every live resource's view, in creation order, under key.
func list[T, V any](key string, all func() []T, view func(T) V) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		items := all()
		views := make([]V, len(items))
		for i, v := range items {
			views[i] = view(v)
		}
		writeJSON(w, http.StatusOK, map[string]any{key: views})
	}
}

// read answers one resource's view.
func read[T, V any](lookup finder[T], view func(T) V) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if v, ok := lookup(w, r); ok {
			writeJSON(w, http.StatusOK, view(v))
		}
	}
}

// write resolves the resource first and decodes the body second, applies
// the body, and answers status with the resource's view.
func write[T, B, V any](lookup finder[T], status int, apply func(T, B) error, view func(T) V) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, ok := lookup(w, r)
		if !ok {
			return
		}
		var body B
		if err := decodeStrict(r.Body, &body); err != nil {
			writeError(w, fmt.Errorf("%w: %v", ErrBadConfig, err))
			return
		}
		if err := apply(v, body); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, status, view(v))
	}
}

// remove deletes the resource {id} names and answers 204.
func remove(del func(id string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := del(r.PathValue("id")); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// maxStreamBuffer caps a stream's ?buffer=, in samples. The subscriber's
// channel is allocated whole at subscribe time, so an unbounded value lets
// one request claim any amount of memory; the largest in-repo client asks
// for 1024.
const maxStreamBuffer = 4096

// stream pushes a live resource's samples as newline-delimited JSON until
// the client disconnects, the resource stops, or ?max=N samples have been
// sent. ?buffer=N sizes the subscriber's ring buffer (default 64, at most
// maxStreamBuffer); a consumer slower than the tick rate loses the oldest
// samples, reported in each record's dropped counter. A resource that is no
// longer running is answered 409 before any header is written, so a client
// can tell "finished" from "no sample yet".
func stream[T any, S interface{ withDropped(uint64) S }](lookup finder[T], subscribe func(T, int) (*telemetry.Subscriber[S], error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, ok := lookup(w, r)
		if !ok {
			return
		}
		buffer, ok := positiveParam(w, r, "buffer", 64)
		if !ok {
			return
		}
		if buffer > maxStreamBuffer {
			writeError(w, fmt.Errorf("%w: buffer %d exceeds the maximum of %d samples", ErrBadConfig, buffer, maxStreamBuffer))
			return
		}
		max, ok := positiveParam(w, r, "max", 0)
		if !ok {
			return
		}

		sub, err := subscribe(v, buffer)
		if err != nil {
			writeError(w, err)
			return
		}
		defer sub.Cancel()

		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		if flusher != nil {
			// Flush the response header immediately: the subscriber is
			// registered, and a client must be able to observe that before
			// the first sample arrives (an idle resource may not tick for a
			// while).
			flusher.Flush()
		}
		enc := json.NewEncoder(w)
		sent := 0
		for {
			select {
			case <-r.Context().Done():
				return
			case smp, open := <-sub.C():
				if !open {
					return
				}
				if err := enc.Encode(smp.withDropped(sub.Dropped())); err != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
				sent++
				if max > 0 && sent >= max {
					return
				}
			}
		}
	}
}
