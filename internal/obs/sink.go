package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// discard is a Sink that drops everything. It exists so callers can hold
// an *enabled* tracer (for pprof labels) without writing a stream.
type discard struct{}

func (discard) SpanStart(SpanData)                       {}
func (discard) SpanEnd(SpanData)                         {}
func (discard) Event(uint64, string, time.Time, []Field) {}

// Discard is a sink that drops the whole stream.
var Discard Sink = discard{}

// Multi fans the stream out to several sinks. Nil entries are skipped.
func Multi(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiSink(live)
}

type multiSink []Sink

func (m multiSink) SpanStart(sd SpanData) {
	for _, s := range m {
		s.SpanStart(sd)
	}
}

func (m multiSink) SpanEnd(sd SpanData) {
	for _, s := range m {
		s.SpanEnd(sd)
	}
}

func (m multiSink) Event(id uint64, name string, at time.Time, fields []Field) {
	for _, s := range m {
		s.Event(id, name, at, fields)
	}
}

// JSONL writes the stream as JSON Lines. One object per line, three
// record shapes (see DESIGN.md "Observability" for the schema):
//
//	{"type":"span_start","id":2,"parent":1,"name":"lock.build_l","ts":"…"}
//	{"type":"span_end","id":2,"parent":1,"name":"lock.build_l","ts":"…","dur_us":8123,"fields":{…}}
//	{"type":"event","span":2,"name":"attach","ts":"…","fields":{"gain_bits":2.1}}
//
// Timestamps are RFC3339Nano; durations are integer microseconds. JSONL
// is safe for concurrent use.
type JSONL struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
}

// NewJSONL returns a JSON-Lines sink writing to w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }

func (j *JSONL) line(build func([]byte) []byte) {
	j.mu.Lock()
	j.buf = build(j.buf[:0])
	j.buf = append(j.buf, '\n')
	j.w.Write(j.buf)
	j.mu.Unlock()
}

func appendFields(b []byte, fields []Field) []byte {
	if len(fields) == 0 {
		return b
	}
	b = append(b, `,"fields":{`...)
	for i, f := range fields {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, f.Key)
		b = append(b, ':')
		switch f.kind {
		case kindInt:
			b = strconv.AppendInt(b, f.num, 10)
		case kindFloat:
			b = appendJSONFloat(b, f.fl)
		case kindStr:
			b = strconv.AppendQuote(b, f.str)
		case kindBool:
			b = strconv.AppendBool(b, f.num != 0)
		case kindDur:
			b = strconv.AppendInt(b, f.num/int64(time.Microsecond), 10)
		}
	}
	return append(b, '}')
}

// appendJSONFloat renders a float as valid JSON (Inf/NaN are not JSON
// numbers; render them as strings).
func appendJSONFloat(b []byte, v float64) []byte {
	if v != v || v > 1e308 || v < -1e308 {
		return strconv.AppendQuote(b, fmt.Sprintf("%g", v))
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendTS(b []byte, at time.Time) []byte {
	b = append(b, `,"ts":`...)
	return at.AppendFormat(append(b, '"'), time.RFC3339Nano+`"`)
}

func (j *JSONL) spanLine(typ string, sd SpanData, withDur bool) {
	j.line(func(b []byte) []byte {
		b = append(b, `{"type":"`...)
		b = append(b, typ...)
		b = append(b, `","id":`...)
		b = strconv.AppendUint(b, sd.ID, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, sd.Parent, 10)
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, sd.Name)
		b = appendTS(b, sd.Start)
		if withDur {
			b = append(b, `,"dur_us":`...)
			b = strconv.AppendInt(b, int64(sd.Duration/time.Microsecond), 10)
		}
		b = appendFields(b, sd.Fields)
		return append(b, '}')
	})
}

// SpanStart implements Sink.
func (j *JSONL) SpanStart(sd SpanData) { j.spanLine("span_start", sd, false) }

// SpanEnd implements Sink.
func (j *JSONL) SpanEnd(sd SpanData) { j.spanLine("span_end", sd, true) }

// Event implements Sink.
func (j *JSONL) Event(id uint64, name string, at time.Time, fields []Field) {
	j.line(func(b []byte) []byte {
		b = append(b, `{"type":"event","span":`...)
		b = strconv.AppendUint(b, id, 10)
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, name)
		b = appendTS(b, at)
		b = appendFields(b, fields)
		return append(b, '}')
	})
}

// CollectedEvent is one event captured by a Collector.
type CollectedEvent struct {
	SpanID uint64
	Name   string
	At     time.Time
	Fields map[string]any
}

// Collector is an in-memory Sink for tests: it records every span
// (keyed by completion) and event.
type Collector struct {
	mu      sync.Mutex
	started []SpanData
	ended   []SpanData
	events  []CollectedEvent
}

// NewCollector returns an empty in-memory sink.
func NewCollector() *Collector { return &Collector{} }

// SpanStart implements Sink.
func (c *Collector) SpanStart(sd SpanData) {
	c.mu.Lock()
	c.started = append(c.started, sd)
	c.mu.Unlock()
}

// SpanEnd implements Sink.
func (c *Collector) SpanEnd(sd SpanData) {
	c.mu.Lock()
	c.ended = append(c.ended, sd)
	c.mu.Unlock()
}

// Event implements Sink.
func (c *Collector) Event(id uint64, name string, at time.Time, fields []Field) {
	fm := make(map[string]any, len(fields))
	for _, f := range fields {
		switch f.kind {
		case kindInt:
			fm[f.Key] = f.num
		case kindFloat:
			fm[f.Key] = f.fl
		case kindStr:
			fm[f.Key] = f.str
		case kindBool:
			fm[f.Key] = f.num != 0
		case kindDur:
			fm[f.Key] = time.Duration(f.num)
		}
	}
	c.mu.Lock()
	c.events = append(c.events, CollectedEvent{SpanID: id, Name: name, At: at, Fields: fm})
	c.mu.Unlock()
}

// Spans returns the completed spans in end order.
func (c *Collector) Spans() []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanData(nil), c.ended...)
}

// Started returns the started spans in start order.
func (c *Collector) Started() []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanData(nil), c.started...)
}

// Events returns the captured events in emission order.
func (c *Collector) Events() []CollectedEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CollectedEvent(nil), c.events...)
}

// EventsNamed returns the captured events with the given name.
func (c *Collector) EventsNamed(name string) []CollectedEvent {
	var out []CollectedEvent
	for _, e := range c.Events() {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// SpanNamed returns the first completed span with the given name.
func (c *Collector) SpanNamed(name string) (SpanData, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sd := range c.ended {
		if sd.Name == name {
			return sd, true
		}
	}
	return SpanData{}, false
}
