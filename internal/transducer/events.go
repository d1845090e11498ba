package transducer

import (
	"repro/internal/fact"
	"repro/internal/obs"
)

// The emit* helpers below are the single construction sites for the
// sim.* event kinds: field names, order and types are part of the
// byte-stable trace format. All are no-ops on a nil sink, keeping the
// disabled-instrumentation path allocation-free.

// emitTransition emits one sim.transition event. The delivered set m
// is part of the event (sorted rendering) so a trace is a complete,
// comparable record of the run: two runs with the same seed must
// produce byte-identical streams.
func emitTransition(sink *obs.Sink, step, clock int, x NodeID, m *fact.Instance, sent int, changed bool, out, buffered, held int) {
	if sink == nil {
		return
	}
	kind := "deliver"
	if m.Empty() {
		kind = "heartbeat"
	}
	sink.Emit(obs.EvTransition,
		obs.F("step", step),
		obs.F("clock", clock),
		obs.F("node", string(x)),
		obs.F("kind", kind),
		obs.F("delivered", m.Len()),
		obs.F("sent", sent),
		obs.F("changed", changed),
		obs.F("out", out),
		obs.F("buffered", buffered),
		obs.F("held", held),
		obs.F("msgs", m.String()))
}

// emitStall emits one sim.stall event (an activation swallowed by a
// stall window).
func emitStall(sink *obs.Sink, step, clock int, x NodeID) {
	if sink == nil {
		return
	}
	sink.Emit(obs.EvStall,
		obs.F("step", step),
		obs.F("clock", clock),
		obs.F("node", string(x)))
}

// emitCrash emits one sim.crash event.
func emitCrash(sink *obs.Sink, step, clock int, x NodeID, dropped, rebuffered int) {
	if sink == nil {
		return
	}
	sink.Emit(obs.EvCrash,
		obs.F("step", step),
		obs.F("clock", clock),
		obs.F("node", string(x)),
		obs.F("dropped", dropped),
		obs.F("rebuffered", rebuffered))
}

// emitHold emits one sim.hold event (a message the fault plan held
// back).
func emitHold(sink *obs.Sink, clock int, from, to NodeID, f fact.Fact, copies, release int) {
	if sink == nil {
		return
	}
	sink.Emit(obs.EvHold,
		obs.F("clock", clock),
		obs.F("from", string(from)),
		obs.F("to", string(to)),
		obs.F("fact", f),
		obs.F("copies", copies),
		obs.F("release", release))
}

// emitQuiesce emits one sim.quiesce event.
func emitQuiesce(sink *obs.Sink, clock, rounds, out int) {
	if sink == nil {
		return
	}
	sink.Emit(obs.EvQuiesce,
		obs.F("clock", clock),
		obs.F("rounds", rounds),
		obs.F("out", out))
}
