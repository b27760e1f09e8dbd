package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"grads/internal/telemetry"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the span log was created
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written out once, at the end.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	if l.t0.IsZero() {
		l.t0 = time.Now()
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(l.t0))})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = int64(time.Since(l.t0))
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countingWriter counts the bytes the telemetry encoder produces.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// eventCounter is a telemetry sink that counts events per component, for
// work the layers publish as trace events rather than counters.
type eventCounter struct{ byComp map[string]uint64 }

func (c *eventCounter) Emit(e telemetry.Event) { c.byComp[e.Comp]++ }
func (c *eventCounter) Close() error           { return nil }

// tracedHub is the telemetry hub of one traced batch: counters are read
// through the public API, events are encoded to JSONL (counted, not kept)
// and tallied per component.
type tracedHub struct {
	tel    *telemetry.Telemetry
	bytes  *countingWriter
	jsonl  *telemetry.JSONL
	events *eventCounter
}

func newTracedHub() *tracedHub {
	h := &tracedHub{tel: telemetry.New(), bytes: &countingWriter{}, events: &eventCounter{byComp: map[string]uint64{}}}
	h.jsonl = telemetry.NewJSONL(h.bytes)
	h.tel.AddSink(h.jsonl)
	h.tel.AddSink(h.events)
	return h
}

// counter sums one counter over every component whose name is comp or
// starts with comp+":" (the serving brokers register as metasched:<site>).
func (h *tracedHub) counter(comp, name string) float64 {
	var sum uint64
	for _, c := range h.tel.Components() {
		if c == comp || strings.HasPrefix(c, comp+":") {
			sum += h.tel.Counter(c, name).Value()
		}
	}
	return float64(sum)
}

// close flushes the encoder and returns the encoded byte count.
func (h *tracedHub) close() (int64, error) {
	if err := h.tel.Close(); err != nil {
		return 0, fmt.Errorf("telemetry: %w", err)
	}
	return h.bytes.n, nil
}
