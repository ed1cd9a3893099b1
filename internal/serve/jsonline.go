package serve

import (
	"bytes"
	"encoding/json"
	"sync"
)

// jsonLine is one encoded JSON line: a pooled buffer and the encoder that
// writes into it. Its bytes equal json.Marshal(v) plus '\n', HTML escaping
// included, so HTTP responses and journal lines keep their exact bytes
// while a request allocates only what encoding its answer needs.
type jsonLine struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonLines = sync.Pool{New: func() any {
	l := new(jsonLine)
	l.enc = json.NewEncoder(&l.buf)
	return l
}}

// encodeLine encodes v into a pooled line. On an encode error the line is
// empty (json.Encoder writes nothing for a value it cannot encode); either
// way the caller frees it.
func encodeLine(v any) (*jsonLine, error) {
	l := jsonLines.Get().(*jsonLine)
	l.buf.Reset()
	return l, l.enc.Encode(v)
}

// free returns the line to the pool; its bytes are dead after the call.
func (l *jsonLine) free() { jsonLines.Put(l) }
