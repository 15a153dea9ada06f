#ifndef FTS_PLAN_OPTIMIZER_H_
#define FTS_PLAN_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "fts/common/status.h"
#include "fts/plan/lqp.h"

namespace fts {

// Rule-based optimizer (Section V: "The rule-based part of the optimizer
// translates the LQP using techniques such as predicate pushdown and
// predicate reordering ... When multiple predicates are identified as a
// chain, they are tagged to be translated as a Fused Table Scan.").
class OptimizerRule {
 public:
  virtual ~OptimizerRule() = default;
  virtual const char* name() const = 0;
  // Rewrites the chain rooted at *root in place (possibly replacing nodes).
  virtual Status Apply(LqpNodePtr* root) = 0;
};

// Moves PredicateNodes below ProjectionNodes so filters run before
// materialization. (Projections in this system never compute new columns,
// so the move is always legal.)
class PredicatePushdownRule final : public OptimizerRule {
 public:
  const char* name() const override { return "PredicatePushdown"; }
  Status Apply(LqpNodePtr* root) override;
};

// Orders adjacent PredicateNodes by estimated selectivity, most selective
// first, using the stored table's estimator (EstimateTableSelectivity, the
// one the scan re-ranks chunks with). Annotates each node with its
// estimate.
class PredicateReorderingRule final : public OptimizerRule {
 public:
  const char* name() const override { return "PredicateReordering"; }
  Status Apply(LqpNodePtr* root) override;
};

// Cleans up predicate conjunctions before fusion:
//   - removes exact duplicates (a = 5 AND a = 5),
//   - removes predicates subsumed by a tighter one on the same column
//     (a < 5 AND a < 9  =>  a < 5),
//   - detects contradictions (a = 5 AND a = 6, a = 5 AND a < 3,
//     a > 9 AND a <= 2) and replaces the chain with an EmptyResultNode.
// Values are compared in the double domain (exact for the integral
// magnitudes this engine stores).
class PredicateSimplificationRule final : public OptimizerRule {
 public:
  const char* name() const override { return "PredicateSimplification"; }
  Status Apply(LqpNodePtr* root) override;
};

// Collapses maximal chains of >= `min_chain_length` PredicateNodes into a
// FusedScanNode (Fig. 8, right side).
class FusedScanFusionRule final : public OptimizerRule {
 public:
  explicit FusedScanFusionRule(size_t min_chain_length = 2)
      : min_chain_length_(min_chain_length) {}
  const char* name() const override { return "FusedScanFusion"; }
  Status Apply(LqpNodePtr* root) override;

 private:
  size_t min_chain_length_;
};

struct OptimizerOptions {
  bool enable_pushdown = true;
  bool enable_simplification = true;
  bool enable_reordering = true;
  // Fusion is enabled when the target execution engine can run a fused
  // operator; the Database facade wires this from its engine setting.
  bool enable_fusion = true;
  size_t fusion_min_chain_length = 2;
};

// Applies the standard rule sequence to `root`.
Status OptimizeLqp(LqpNodePtr* root, const OptimizerOptions& options = {});

}  // namespace fts

#endif  // FTS_PLAN_OPTIMIZER_H_
