package pig

import (
	"unsafe"

	"spongefiles/internal/mapreduce"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
)

// UDFContext gives a user-defined function access to the bag machinery.
type UDFContext struct {
	P    *simtime.Proc
	Task *mapreduce.TaskContext
	MM   *MemoryManager
}

// UDF is a holistic group function: it receives one group's bag and
// emits output tuples.
type UDF func(ctx *UDFContext, group string, bag *Bag, emit func(Tuple))

// GroupQuery is the dataflow shape of the paper's two Pig queries:
// LOAD → (optional FOREACH projection) → GROUP BY key → UDF per group.
// It compiles to one MapReduce job whose reduce phase builds a
// (spillable) bag per group and applies the UDF — the holistic UDFs
// that skew-avoidance cannot help with (§2.2).
type GroupQuery struct {
	Name string
	// Input provides the tuple stream: a DFS file plus a per-split
	// generator yielding serialized tuples as record values.
	Input mapreduce.Input
	// Filter drops tuples map-side before any projection; nil keeps
	// everything.
	Filter func(Tuple) bool
	// Project trims each tuple map-side; nil models the naive
	// no-projection plan of the spam-quantiles query.
	Project func(Tuple) Tuple
	// GroupKey extracts the grouping key.
	GroupKey func(Tuple) string
	// UDF runs per group in the reduce.
	UDF UDF
	// SortKey, when set, makes each group's bag an ordered bag.
	SortKey func(Tuple) Value

	// Algebraic, when set, declares the group function algebraic (Pig's
	// Algebraic interface): partial aggregates fold associatively, so
	// the fold runs as a combiner at task scope, across co-located
	// tasks at node scope (JobConf.NodeCombine), and again during
	// reduce-side merges — holistic UDFs like TopK and Quantiles get
	// none of this. When Algebraic is set UDF/SortKey are ignored and
	// the reduce folds partials instead of building bags.
	Algebraic *AlgebraicFold

	// BagMemFraction is the fraction of the task heap available to
	// bags before the memory manager spills (Pig's collection
	// threshold); default 0.25.
	BagMemFraction float64
	// ChunkVirtual is the bag spill chunk size C; default 10 MB.
	ChunkVirtual int64
}

// AlgebraicFold describes an algebraic group function as Pig's
// Algebraic interface does: Init maps one input tuple to a partial
// aggregate, Merge folds two partials, Final turns the group's folded
// partial into output tuples. Merge must be associative and commutative
// for the fold to run at any scope.
type AlgebraicFold struct {
	Init  func(t Tuple) Tuple
	Merge func(acc, next Tuple) Tuple
	Final func(group string, acc Tuple, emit func(Tuple))
}

// CountFold counts tuples per group: partial = (count), final = (count).
func CountFold() *AlgebraicFold {
	return &AlgebraicFold{
		Init:  func(t Tuple) Tuple { return Tuple{int64(1)} },
		Merge: func(acc, next Tuple) Tuple { return Tuple{acc.Int(0) + next.Int(0)} },
		Final: func(group string, acc Tuple, emit func(Tuple)) { emit(acc) },
	}
}

// SumFold sums float field f per group: partial = (sum, count), final
// = (sum, count) — enough to derive averages downstream.
func SumFold(f int) *AlgebraicFold {
	return &AlgebraicFold{
		Init:  func(t Tuple) Tuple { return Tuple{t.Float(f), int64(1)} },
		Merge: func(acc, next Tuple) Tuple { return Tuple{acc.Float(0) + next.Float(0), acc.Int(1) + next.Int(1)} },
		Final: func(group string, acc Tuple, emit func(Tuple)) { emit(acc) },
	}
}

// Compile lowers the query to a MapReduce JobConf. The caller supplies
// the spill factory (disk versus SpongeFiles) and cluster heap size.
// Algebraic queries compile with the fold as the job's combiner and
// node combining enabled; holistic queries compile to the bag plan.
func (q *GroupQuery) Compile(heapVirtual int64, factory spill.Factory) mapreduce.JobConf {
	if q.Algebraic != nil {
		return q.compileAlgebraic(factory)
	}
	bagFrac := q.BagMemFraction
	if bagFrac <= 0 {
		bagFrac = 0.25
	}
	chunkV := q.ChunkVirtual
	if chunkV <= 0 {
		chunkV = DefaultChunkVirtual
	}
	conf := mapreduce.JobConf{
		Name:         q.Name,
		Input:        q.Input,
		NumReducers:  1, // both paper queries funnel into one straggling reduce
		SpillFactory: factory,
		Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
			t := DecodeTuple(v)
			if q.Filter != nil && !q.Filter(t) {
				return
			}
			if q.Project == nil {
				// DecodeTuple accepts only canonical encodings, so v
				// already is AppendTuple(nil, t).
				emit(keyBytes(q.GroupKey(t)), v)
				return
			}
			t = q.Project(t)
			emit(keyBytes(q.GroupKey(t)), AppendTuple(nil, t))
		},
		Reduce: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			budget := ctx.Node.RealOf(int64(float64(heapVirtual) * bagFrac))
			chunk := ctx.Node.RealOf(chunkV)
			mm := NewMemoryManager(ctx.P, ctx.Spill, budget, chunk)
			var bag *Bag
			group := string(key)
			if q.SortKey != nil {
				bag = mm.NewSortedBag(group, q.SortKey)
			} else {
				bag = mm.NewBag(group)
			}
			for {
				v, ok := vals.Next()
				if !ok {
					break
				}
				bag.AddSerialized(v)
			}
			uctx := &UDFContext{P: ctx.P, Task: ctx, MM: mm}
			q.UDF(uctx, group, bag, func(t Tuple) {
				out := AppendTuple(nil, t)
				emit(key, out)
			})
			bag.Delete(ctx.P)
		},
	}
	return conf
}

// keyBytes views a group key as bytes without copying it. Emit never
// writes into its arguments and a string's bytes never change, so the
// view is safe to emit even where the receiver retains it.
func keyBytes(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// compileAlgebraic lowers an algebraic query: the map emits Init
// partials, the fold runs as the combiner (task scope, node scope via
// NodeCombine, and reduce-merge scope), and the reduce folds the
// surviving partials and applies Final. No bags are built — the
// aggregate state is one tuple per group at every stage.
func (q *GroupQuery) compileAlgebraic(factory spill.Factory) mapreduce.JobConf {
	alg := q.Algebraic
	// fold drains one key's partials into a single accumulator.
	fold := func(ctx *mapreduce.TaskContext, vals *mapreduce.ValueIter) Tuple {
		var acc Tuple
		for {
			v, ok := vals.Next()
			if !ok {
				break
			}
			t := DecodeTuple(v)
			if acc == nil {
				acc = t
			} else {
				acc = alg.Merge(acc, t)
			}
			ctx.ChargeCPU(simtime.Microsecond)
		}
		return acc
	}
	return mapreduce.JobConf{
		Name:         q.Name,
		Input:        q.Input,
		NumReducers:  1,
		SpillFactory: factory,
		NodeCombine:  true,
		Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
			t := DecodeTuple(v)
			if q.Filter != nil && !q.Filter(t) {
				return
			}
			if q.Project != nil {
				t = q.Project(t)
			}
			emit(keyBytes(q.GroupKey(t)), AppendTuple(nil, alg.Init(t)))
		},
		Combine: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			if acc := fold(ctx, vals); acc != nil {
				emit(key, AppendTuple(nil, acc))
			}
		},
		Reduce: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			acc := fold(ctx, vals)
			if acc == nil {
				return
			}
			alg.Final(string(key), acc, func(t Tuple) {
				emit(key, AppendTuple(nil, t))
			})
		},
	}
}
