package queries

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/datalog"
	"repro/internal/monotone"
)

// CatalogEntry describes one of the library's queries: its
// parameterized name, the smallest monotonicity class of Figure 1 it
// belongs to (Bounded classes use the smallest i for which membership
// holds where applicable; None means only in C), and an optional
// Datalog¬ program computing it.
type CatalogEntry struct {
	// Name is the lookup key, e.g. "tc", "qtc", "winmove", "clique:3".
	Name string
	// Description summarizes the query.
	Description string
	// Query is the native evaluator.
	Query monotone.Query
	// Class is the smallest unbounded class containing the query;
	// InC is set when the query is only in C (no weakened class).
	Class monotone.Class
	InC   bool
	// Program is the Datalog¬ form when one exists (nil for win-move,
	// which needs the well-founded semantics).
	Program *datalog.Program
}

// catalog returns the fixed entries of the query library (the
// parameterized families are resolved through Lookup).
func catalog() []CatalogEntry {
	return []CatalogEntry{
		{
			Name:        "tc",
			Description: "transitive closure of E",
			Query:       TC(),
			Class:       monotone.M,
			Program:     TCProgram(),
		},
		{
			Name:        "noloop",
			Description: "active-domain values without a self-loop",
			Query:       NoLoop(),
			Class:       monotone.MDistinct,
			Program:     NoLoopProgram(),
		},
		{
			Name:        "qtc",
			Description: "complement of the transitive closure",
			Query:       ComplementTC(),
			Class:       monotone.MDisjoint,
			Program:     ComplementTCProgram(),
		},
		{
			Name:        "winmove",
			Description: "won positions under the well-founded semantics",
			Query:       WinMove(),
			Class:       monotone.MDisjoint,
		},
		{
			Name:        "winmove3v",
			Description: "won/lost/drawn classification of game positions",
			Query:       WinMoveThreeValued(),
			Class:       monotone.MDisjoint,
		},
		{
			Name:        "triangles",
			Description: "all triangles unless two vertex-disjoint triangles exist",
			Query:       TrianglesUnlessTwoDisjoint(),
			InC:         true,
		},
	}
}

// Lookup resolves a query by catalog name, including the parameterized
// families "clique:K", "star:K" and "duplicate:J".
func Lookup(name string) (CatalogEntry, error) {
	for _, e := range catalog() {
		if e.Name == name {
			return e, nil
		}
	}
	parse := func(prefix string) (int, bool, error) {
		if !strings.HasPrefix(name, prefix+":") {
			return 0, false, nil
		}
		k, err := strconv.Atoi(name[len(prefix)+1:])
		if err != nil || k < 1 {
			return 0, true, fmt.Errorf("queries: bad parameter in %q", name)
		}
		return k, true, nil
	}
	if k, ok, err := parse("clique"); ok {
		if err != nil {
			return CatalogEntry{}, err
		}
		if k < 2 {
			return CatalogEntry{}, fmt.Errorf("queries: clique needs K >= 2")
		}
		return CatalogEntry{
			Name:        name,
			Description: fmt.Sprintf("edge relation unless a %d-clique exists", k),
			Query:       KClique(k),
			InC:         true, // only the bounded classes contain it
			Program:     KCliqueProgram(k),
		}, nil
	}
	if k, ok, err := parse("star"); ok {
		if err != nil {
			return CatalogEntry{}, err
		}
		return CatalogEntry{
			Name:        name,
			Description: fmt.Sprintf("edge relation unless a star with %d spokes exists", k),
			Query:       KStar(k),
			InC:         true,
			Program:     KStarProgram(k),
		}, nil
	}
	if j, ok, err := parse("duplicate"); ok {
		if err != nil {
			return CatalogEntry{}, err
		}
		return CatalogEntry{
			Name:        name,
			Description: fmt.Sprintf("R1 unless a tuple occurs in all of R1..R%d", j),
			Query:       Duplicate(j),
			InC:         true,
			Program:     DuplicateProgram(j),
		}, nil
	}
	return CatalogEntry{}, fmt.Errorf("queries: unknown query %q", name)
}
