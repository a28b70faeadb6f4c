package telemetry

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Level classifies structured log events.
type Level int32

// Log levels, in increasing severity.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// Field is one key-value attribute of a log event.
type Field struct {
	Key   string
	Value any
}

// F builds a field.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Event is one structured log record.
type Event struct {
	Time   time.Time
	Level  Level
	Msg    string
	Fields []Field
}

// Sink consumes log events. Implementations must be safe for concurrent
// use.
type Sink interface {
	Emit(Event)
}

// Logger is a leveled structured event log. With no sink installed (the
// default) every log call is a single atomic load and an early return, so
// instrumented hot paths cost ~zero when logging is off.
type Logger struct {
	sink atomic.Pointer[sinkBox]
}

// sinkBox wraps the interface so it fits an atomic.Pointer.
type sinkBox struct{ s Sink }

// SetSink installs the sink; nil disables logging.
func (l *Logger) SetSink(s Sink) {
	if s == nil {
		l.sink.Store(nil)
		return
	}
	l.sink.Store(&sinkBox{s: s})
}

// Log emits one event if a sink is installed.
func (l *Logger) Log(level Level, msg string, fields ...Field) {
	box := l.sink.Load()
	if box == nil {
		return
	}
	box.s.Emit(Event{Time: time.Now(), Level: level, Msg: msg, Fields: fields})
}

// Info logs at info level.
func (l *Logger) Info(msg string, fields ...Field) { l.Log(LevelInfo, msg, fields...) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, fields ...Field) { l.Log(LevelWarn, msg, fields...) }

// WriterSink renders events as one "time level msg k=v ..." line each.
type WriterSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewWriterSink wraps an io.Writer as a sink.
func NewWriterSink(w io.Writer) *WriterSink { return &WriterSink{w: w} }

// Emit implements Sink.
func (s *WriterSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, "%s %s %s", e.Time.Format(time.RFC3339Nano), e.Level, e.Msg)
	for _, f := range e.Fields {
		fmt.Fprintf(s.w, " %s=%v", f.Key, f.Value)
	}
	fmt.Fprintln(s.w)
}
