// Package calm is the public API of this repository: a reproduction of
// "Weaker Forms of Monotonicity for Declarative Networking: a More
// Fine-grained Answer to the CALM-conjecture" (Ameloot, Ketsman,
// Neven, Zinn; PODS 2014).
//
// It re-exports, in one place, the building blocks a user needs:
//
//   - the relational data model (facts, instances, schemas);
//   - the Datalog¬ engine with stratified semantics and the fragment
//     classifier (SP-Datalog, con-Datalog¬, semicon-Datalog¬, ...);
//   - the wILOG¬ engine with value invention;
//   - the monotonicity framework (M, Mdistinct, Mdisjoint and the
//     bounded variants) with violation search;
//   - the paper's query library (QTC, Q^k_clique, Q^k_star,
//     Q^j_duplicate, win-move under the well-founded semantics);
//   - the relational transducer network simulator (original,
//     policy-aware, and domain-guided models, with or without All)
//     and its schedule explorer: "Π computes Q" is checked by
//     ExploreSchedules, whose fair, adversarial and seeded fault
//     schedules are judged after every transition and at quiescence;
//   - the three coordination-free evaluation strategies from the
//     proofs of Theorems 4.3 and 4.4.
//
// Quick start:
//
//	q := calm.WinMove()
//	net := calm.MustNetwork("n1", "n2", "n3")
//	pol := calm.DomainGuided(calm.HashAssignment(net))
//	in := calm.MustParseInstance(`Move(a,b) Move(b,c)`)
//	res, err := calm.Compute(calm.DomainRequest, q, net, pol, in, 0)
//	// res.Output == the positions won under the well-founded semantics,
//	// computed coordination-free on three nodes.
package calm

import (
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/fact"
	"repro/internal/ilog"
	"repro/internal/incr"
	"repro/internal/monotone"
	"repro/internal/queries"
	"repro/internal/transducer"
)

// Relational data model (internal/fact).
type (
	// Value is a domain value.
	Value = fact.Value
	// Fact is a ground atom R(d1..dk).
	Fact = fact.Fact
	// Instance is a finite set of facts.
	Instance = fact.Instance
	// Schema maps relation names to arities.
	Schema = fact.Schema
	// ValueSet is a set of domain values.
	ValueSet = fact.ValueSet
)

// Data model constructors and co(I).
var (
	NewFact           = fact.New
	NewInstance       = fact.NewInstance
	ParseFact         = fact.ParseFact
	MustParseFact     = fact.MustParseFact
	ParseInstance     = fact.ParseInstance
	MustParseInstance = fact.MustParseInstance
	NewSchema         = fact.NewSchema
	MustSchema        = fact.MustSchema
	GraphSchema       = fact.GraphSchema
	Components        = fact.Components
)

// Datalog¬ engine (internal/datalog).
type (
	// Program is a Datalog¬ program.
	Program = datalog.Program
	// Rule is a Datalog¬ rule (head, pos, neg, ineq).
	Rule = datalog.Rule
	// Fragment names a Datalog fragment of Figure 2.
	Fragment = datalog.Fragment
	// DatalogQuery is a program restricted to output relations.
	DatalogQuery = datalog.Query
)

// Datalog¬ constructors and evaluation.
var (
	ParseProgram     = datalog.ParseProgram
	MustParseProgram = datalog.MustParseProgram
	NewDatalogQuery  = datalog.NewQuery
	WithAdomRules    = datalog.WithAdomRules
)

// Fragment labels.
const (
	FragDatalog        = datalog.FragDatalog
	FragDatalogNeq     = datalog.FragDatalogNeq
	FragSPDatalog      = datalog.FragSPDatalog
	FragConDatalog     = datalog.FragConDatalog
	FragSemiconDatalog = datalog.FragSemiconDatalog
	FragStratified     = datalog.FragStratified
	FragUnstratifiable = datalog.FragUnstratifiable
)

// wILOG¬ engine (internal/ilog).
type (
	// ILOGProgram is an ILOG¬ program with value invention.
	ILOGProgram = ilog.Program
	// ILOGRule is an ILOG¬ rule; set Invents for invention heads.
	ILOGRule = ilog.Rule
)

// Monotonicity framework (internal/monotone).
type (
	// Query is a generic mapping from instances to instances.
	Query = monotone.Query
	// Class identifies a monotonicity class.
	Class = monotone.Class
	// Witness records a monotonicity violation.
	Witness = monotone.Witness
)

// The monotonicity classes of Definition 1.
var (
	M          = monotone.M
	MDistinct  = monotone.MDistinct
	MDisjoint  = monotone.MDisjoint
	Mi         = monotone.Mi
	MiDistinct = monotone.MiDistinct
	MiDisjoint = monotone.MiDisjoint
)

// Monotonicity checking.
var (
	CheckPair     = monotone.CheckPair
	FindViolation = monotone.FindViolation
	ShrinkWitness = monotone.ShrinkWitness
	NewFuncQuery  = monotone.NewFunc
)

// wILOG¬ parsing and the doubled-program well-founded evaluation
// (Section 5.2 and the Section 7 remark).
var (
	ParseILOGProgram      = ilog.ParseProgram
	MustParseILOGProgram  = ilog.MustParseProgram
	DoubledProgram        = queries.DoubledProgram
	WellFoundedViaDoubled = queries.WellFoundedViaDoubled
)

// Query library (internal/queries).
var (
	TC                         = queries.TC
	ComplementTC               = queries.ComplementTC
	NoLoop                     = queries.NoLoop
	KClique                    = queries.KClique
	KStar                      = queries.KStar
	Duplicate                  = queries.Duplicate
	TrianglesUnlessTwoDisjoint = queries.TrianglesUnlessTwoDisjoint
	WinMove                    = queries.WinMove
	WinMoveThreeValued         = queries.WinMoveThreeValued
	WinMoveClassified          = queries.WinMoveClassified
	WellFounded                = queries.WellFounded
)

// Transducer networks (internal/transducer).
type (
	// NodeID identifies a computing node.
	NodeID = transducer.NodeID
	// Network is a set of nodes.
	Network = transducer.Network
	// Policy is a distribution policy.
	Policy = transducer.Policy
	// Transducer is a relational transducer.
	Transducer = transducer.Transducer
	// Simulation is a running transducer network.
	Simulation = transducer.Simulation
	// Model selects the visible system relations.
	Model = transducer.Model
	// ScheduleViolation is a schedule on which a network failed to
	// compute its query (Explore's finding).
	ScheduleViolation = transducer.ScheduleViolation
	// ExploreOptions tunes ExploreSchedules.
	ExploreOptions = transducer.ExploreOptions
)

// Network and policy constructors.
var (
	NewNetwork       = transducer.NewNetwork
	MustNetwork      = transducer.MustNetwork
	HashPolicy       = transducer.HashPolicy
	DomainGuided     = transducer.DomainGuided
	HashAssignment   = transducer.HashAssignment
	RandomPolicy     = transducer.RandomPolicy
	RandomAssignment = transducer.RandomAssignment
	AllToNode        = transducer.AllToNode
	ReplicateAll     = transducer.ReplicateAll
	NewSimulation    = transducer.NewSimulation
	ExploreSchedules = transducer.ExploreSchedules
	// Explore model-checks every heartbeat/deliver-all schedule to a
	// bounded depth for an output fact outside the expected answer.
	Explore = transducer.Explore
	// NewSimulationOver is NewSimulation over given links (per-node
	// recipient lists) instead of the paper's broadcast.
	NewSimulationOver = transducer.NewSimulationOver
)

// Transducer models.
var (
	Original         = transducer.Original
	PolicyAware      = transducer.PolicyAware
	PolicyAwareNoAll = transducer.PolicyAwareNoAll
	Oblivious        = transducer.Oblivious
)

// Coordination-free strategies (internal/core — the paper's primary
// contribution).
type (
	// Strategy selects an evaluation strategy.
	Strategy = core.Strategy
	// Result is a distributed evaluation result with metrics.
	Result = core.Result
	// RunConfig collects ComputeRun's knobs: round bound, fault plan,
	// seeded random prefix, event tracer and metrics registry.
	RunConfig = core.RunConfig
)

// The three strategies.
const (
	Broadcast     = core.Broadcast
	Absence       = core.Absence
	DomainRequest = core.DomainRequest
)

// Strategy construction and execution.
var (
	BuildStrategy          = core.Build
	Compute                = core.Compute
	ComputeRun             = core.ComputeRun
	VerifyCoordinationFree = core.VerifyCoordinationFree
)

// Incremental view maintenance (internal/incr): counting-based delta
// propagation for insertions, delete–rederive for retractions and
// stratified negation — the paper's monotone fragments maintained
// without recomputation. cmd/calmd serves this engine over NDJSON.
type (
	// Materialization is an incrementally maintained stratified fixpoint.
	Materialization = incr.Materialization
	// Delta is a batch of base-fact insertions and retractions.
	Delta = incr.Delta
	// ApplyStats reports the work one Delta application did.
	ApplyStats = incr.ApplyStats
	// IncrOptions configures incremental maintenance (mode, workers,
	// instrumentation).
	IncrOptions = incr.Options
)

// Incremental maintenance construction.
var (
	NewMaterialization     = incr.New
	RestoreMaterialization = incr.Restore
)
