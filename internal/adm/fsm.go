// Package adm implements the Adaptive Data Movement methodology (paper
// §2.3): the application-level infrastructure for writing data-parallel
// programs that respond to migration events by moving *data* instead of
// processes.
//
// The paper's three complications shape the package:
//
//   - unpredictable timing → EventQueue delivers asynchronous migration
//     signals into a flag the application polls from its inner loops;
//   - rapid response → the queue costs one flag check per poll;
//   - multiple simultaneous events → events are queued, never dropped, and
//     the FSM engine validates that every (state, event) pair the program
//     can encounter has a defined transition, the "great care ... to ensure
//     correctness" the paper calls out.
//
// The FSM engine reproduces Figure 4's structure: explicit states, declared
// transitions, and a transition log.
package adm

import (
	"fmt"
	"sort"
	"strings"
)

// State names one circle of the paper's Figure 4 finite-state machine.
type State string

// Transition records one arc taken at run time.
type Transition struct {
	From  State
	Event string
	To    State
}

// FSM is a declarative finite-state machine: transitions must be declared
// before they are taken, so an unhandled (state, event) pair fails loudly
// instead of silently mis-handling a migration event.
type FSM struct {
	state State
	rules map[State]map[string]State
	log   []Transition
}

// NewFSM creates a machine in the given initial state.
func NewFSM(initial State) *FSM {
	return &FSM{state: initial, rules: make(map[State]map[string]State)}
}

// On declares that event in state from leads to state to.
func (f *FSM) On(from State, event string, to State) *FSM {
	m, ok := f.rules[from]
	if !ok {
		m = make(map[string]State)
		f.rules[from] = m
	}
	m[event] = to
	return f
}

// State returns the current state.
func (f *FSM) State() State { return f.state }

// Fire takes the transition for event, returning the new state. Undeclared
// transitions return an error and leave the state unchanged — the guard
// against lost or mis-handled migration events.
func (f *FSM) Fire(event string) (State, error) {
	to, ok := f.rules[f.state][event]
	if !ok {
		return f.state, fmt.Errorf("adm: no transition for event %q in state %q", event, f.state)
	}
	f.log = append(f.log, Transition{From: f.state, Event: event, To: to})
	f.state = to
	return to, nil
}

// Log returns the transitions taken, in order.
func (f *FSM) Log() []Transition { return f.log }

// States returns all declared states, sorted.
func (f *FSM) States() []State {
	seen := map[State]bool{f.state: true}
	for from, m := range f.rules {
		seen[from] = true
		for _, to := range m {
			seen[to] = true
		}
	}
	var out []State
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Table renders the declared transition table — the textual equivalent of
// the paper's Figure 4 diagram.
func (f *FSM) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "state machine (%d states)\n", len(f.States()))
	var froms []State
	for from := range f.rules {
		froms = append(froms, from)
	}
	sort.Slice(froms, func(i, j int) bool { return froms[i] < froms[j] })
	for _, from := range froms {
		var events []string
		for e := range f.rules[from] {
			events = append(events, e)
		}
		sort.Strings(events)
		for _, e := range events {
			fmt.Fprintf(&b, "  %-14s --%s--> %s\n", from, e, f.rules[from][e])
		}
	}
	return b.String()
}
