// Package lintfixture holds struct fields each read in a way that is not a
// plain selector on the right-hand side.
package lintfixture

import "fmt"

// Window is read only through the address of its field.
type Window struct{ size int }

func (w *Window) Grow() {
	p := &w.size
	*p *= 2
}

// Counter's stats are read to find the count written through them.
type Counter struct{ stats *Stats }

// Stats is shared by pointer.
type Stats struct{ n int }

func (c Counter) Tick() { c.stats.n++ }

func (s *Stats) N() int { return s.n }

// Base's field is read through the struct that embeds it.
type Base struct{ ID int }

// Node embeds Base.
type Node struct{ Base }

func (n Node) Key() int { return n.ID }

// key is only ever compared whole.
type key struct{ host, port int }

func Same(a, b key) bool { return a == b }

// Event is only ever printed whole, its nested Stamp with it.
type Event struct {
	Reason string
	at     Stamp
}

// Stamp is reached only through Event.
type Stamp struct{ sec int }

func Describe(e Event) string { return fmt.Sprint(e) }

// Note is only ever carried in an envelope's any-typed field.
type Note struct{ text string }

// Envelope carries any payload.
type Envelope struct{ body any }

func Wrap(n Note) Envelope { return Envelope{body: n} }

func (e Envelope) Body() any { return e.body }

// Row is filled and read by a decoder through its tags.
type Row struct {
	Name string `json:"name"`
}
