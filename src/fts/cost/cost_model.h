#ifndef FTS_COST_COST_MODEL_H_
#define FTS_COST_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "fts/cost/cost_profile.h"

namespace fts {
namespace cost {

// What the scan does with each match — selects the emit term of the chain
// cost. kCount credits the SISD engines' no-materialization count loop;
// kAggregate approximates the masked fold as one emit-sized op per match.
enum class ScanMode : uint8_t {
  kMaterialize = 0,
  kCount,
  kAggregate,
};

// One conjunct as the cost model sees it: the operand shape the kernels
// read and the estimated fraction of rows (reaching it) that pass.
struct StageCost {
  EncClass enc = EncClass::kPlain32;
  double selectivity = 0.5;
};

// Rank key for cheapest-effective-first chain ordering. For independent
// conjuncts the expected chain cost is minimized by ascending
// cost_i / (1 - sel_i) (the classic predicate-ordering result); `cost_i`
// is the per-row cost of evaluating the stage on the ranking engine.
// Stages that filter nothing (sel -> 1) rank last regardless of cost.
double StageRank(const CostProfile& profile, ScanEngine ranking_engine,
                 EncClass enc, double selectivity);

// Expected nanoseconds for one chunk's kernel chain on `engine`:
//
//   rows * first_ns[enc_0]
//   + sum_{i>0} rows * prefix_sel_i * rest_ns[enc_i]
//   + rows * chain_sel * emit(mode)
//
// `stages` must be in execution order. kCount zeroes the emit term for
// the SISD engines (their count loop materializes nothing); every other
// engine materializes positions regardless of mode.
double ChainCostNs(const CostProfile& profile, ScanEngine engine,
                   const std::vector<StageCost>& stages, double rows,
                   ScanMode mode);

// Expected nanoseconds to batch-gather a late-materialized projection.
// `cells_by_encoding[e]` counts output cells whose source column carries
// ColumnEncoding e (same index space as ExecutionReport::stage_encodings:
// 0=plain, 1=dictionary, 2=bit-packed, 3=RLE, 4=FoR, 5=delta). The kernel
// encodings (plain/dict/packed/FoR) are priced with the engine's per-match
// emit constant — a gathered cell is the same position-indexed load+store
// the scan's emit path performs — and the compressed encodings reuse the
// engine-independent compressed-domain constants: RLE cells cost one
// range-append each, delta cells one prefix-reconstructed row each.
double GatherCostNs(const CostProfile& profile, ScanEngine engine,
                    const uint64_t cells_by_encoding[6]);

// Expected matches of a conjunction with the given per-stage
// selectivities (independence assumption).
inline double ChainSelectivity(const std::vector<StageCost>& stages) {
  double sel = 1.0;
  for (const StageCost& stage : stages) sel *= stage.selectivity;
  return sel;
}

}  // namespace cost
}  // namespace fts

#endif  // FTS_COST_COST_MODEL_H_
