#include "fts/plan/optimizer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>

#include "fts/common/macros.h"
#include "fts/common/string_util.h"
#include "fts/storage/table_statistics.h"

namespace fts {
namespace {

// Flattens the linear chain into a root-first vector (the last element is
// the StoredTableNode).
std::vector<LqpNodePtr> FlattenChain(const LqpNodePtr& root) {
  std::vector<LqpNodePtr> nodes;
  for (LqpNodePtr node = root; node != nullptr; node = node->child()) {
    nodes.push_back(node);
  }
  return nodes;
}

// Relinks a root-first vector into a chain and returns the new root.
LqpNodePtr RelinkChain(std::vector<LqpNodePtr> nodes) {
  FTS_CHECK(!nodes.empty());
  for (size_t i = 0; i + 1 < nodes.size(); ++i) {
    nodes[i]->set_child(nodes[i + 1]);
  }
  nodes.back()->set_child(nullptr);
  return nodes.front();
}

}  // namespace

Status PredicatePushdownRule::Apply(LqpNodePtr* root) {
  std::vector<LqpNodePtr> nodes = FlattenChain(*root);
  // Bubble every PredicateNode below any ProjectionNode beneath it. In the
  // root-first vector this means predicates move toward the back, past
  // projections. Stable to preserve the relative predicate order.
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i + 1 < nodes.size(); ++i) {
      if (nodes[i]->kind() == LqpNodeKind::kPredicate &&
          nodes[i + 1]->kind() == LqpNodeKind::kProjection) {
        std::swap(nodes[i], nodes[i + 1]);
        changed = true;
      }
    }
  }
  *root = RelinkChain(std::move(nodes));
  return Status::Ok();
}

namespace {

// Interval summary of all predicates on one column, in the double domain.
// Comparisons are exact for every value this engine stores with magnitude
// below 2^53; larger integers disable simplification for their column.
struct ColumnBounds {
  std::optional<double> eq;
  size_t eq_index = 0;
  // (value, inclusive, node index); best = tightest.
  std::optional<std::tuple<double, bool, size_t>> lower;
  std::optional<std::tuple<double, bool, size_t>> upper;
  std::map<double, size_t> nes;  // Distinct != values, first node each.
  bool unsimplifiable = false;   // Values beyond exact double range.
  bool contradiction = false;
};

bool ExactInDouble(const Value& value) {
  const double d = ValueAs<double>(value);
  return std::abs(d) <= 9007199254740992.0;  // 2^53.
}

void Absorb(ColumnBounds& bounds, const AstPredicate& predicate,
            size_t index) {
  if (!ExactInDouble(predicate.literal)) {
    bounds.unsimplifiable = true;
    return;
  }
  const double v = ValueAs<double>(predicate.literal);
  switch (predicate.op) {
    case CompareOp::kEq:
      if (bounds.eq.has_value() && *bounds.eq != v) {
        bounds.contradiction = true;
      } else if (!bounds.eq.has_value()) {
        bounds.eq = v;
        bounds.eq_index = index;
      }
      return;
    case CompareOp::kNe:
      bounds.nes.emplace(v, index);
      return;
    case CompareOp::kGt:
    case CompareOp::kGe: {
      const bool inclusive = predicate.op == CompareOp::kGe;
      if (!bounds.lower.has_value() ||
          v > std::get<0>(*bounds.lower) ||
          (v == std::get<0>(*bounds.lower) && !inclusive &&
           std::get<1>(*bounds.lower))) {
        bounds.lower = {v, inclusive, index};
      }
      return;
    }
    case CompareOp::kLt:
    case CompareOp::kLe: {
      const bool inclusive = predicate.op == CompareOp::kLe;
      if (!bounds.upper.has_value() ||
          v < std::get<0>(*bounds.upper) ||
          (v == std::get<0>(*bounds.upper) && !inclusive &&
           std::get<1>(*bounds.upper))) {
        bounds.upper = {v, inclusive, index};
      }
      return;
    }
  }
}

// Returns the node indexes to keep for this column, or nullopt on
// contradiction.
std::optional<std::set<size_t>> Finalize(ColumnBounds& bounds,
                                         size_t total_nodes_on_column,
                                         const std::vector<size_t>& all) {
  if (bounds.contradiction) return std::nullopt;
  if (bounds.unsimplifiable) {
    // Keep everything untouched.
    return std::set<size_t>(all.begin(), all.end());
  }
  std::set<size_t> keep;
  if (bounds.eq.has_value()) {
    const double eq = *bounds.eq;
    if (bounds.nes.count(eq) > 0) return std::nullopt;
    if (bounds.lower.has_value()) {
      const auto [v, inclusive, index] = *bounds.lower;
      if (eq < v || (eq == v && !inclusive)) return std::nullopt;
    }
    if (bounds.upper.has_value()) {
      const auto [v, inclusive, index] = *bounds.upper;
      if (eq > v || (eq == v && !inclusive)) return std::nullopt;
    }
    // The equality subsumes every other predicate on the column.
    keep.insert(bounds.eq_index);
    return keep;
  }
  if (bounds.lower.has_value() && bounds.upper.has_value()) {
    const auto [lo, lo_inclusive, lo_index] = *bounds.lower;
    const auto [hi, hi_inclusive, hi_index] = *bounds.upper;
    if (lo > hi || (lo == hi && !(lo_inclusive && hi_inclusive))) {
      return std::nullopt;
    }
  }
  if (bounds.lower.has_value()) keep.insert(std::get<2>(*bounds.lower));
  if (bounds.upper.has_value()) keep.insert(std::get<2>(*bounds.upper));
  for (const auto& [v, index] : bounds.nes) {
    // != values provably outside the bounds are redundant.
    if (bounds.lower.has_value()) {
      const auto [lo, lo_inclusive, lo_index] = *bounds.lower;
      if (v < lo || (v == lo && !lo_inclusive)) continue;
    }
    if (bounds.upper.has_value()) {
      const auto [hi, hi_inclusive, hi_index] = *bounds.upper;
      if (v > hi || (v == hi && !hi_inclusive)) continue;
    }
    keep.insert(index);
  }
  (void)total_nodes_on_column;
  return keep;
}

}  // namespace

Status PredicateSimplificationRule::Apply(LqpNodePtr* root) {
  std::vector<LqpNodePtr> nodes = FlattenChain(*root);

  std::vector<LqpNodePtr> rewritten;
  rewritten.reserve(nodes.size());
  size_t i = 0;
  while (i < nodes.size()) {
    if (nodes[i]->kind() != LqpNodeKind::kPredicate) {
      rewritten.push_back(nodes[i]);
      ++i;
      continue;
    }
    size_t j = i;
    while (j < nodes.size() && nodes[j]->kind() == LqpNodeKind::kPredicate) {
      ++j;
    }

    // Summarize the run per column.
    std::map<std::string, ColumnBounds> by_column;
    std::map<std::string, std::vector<size_t>> indexes_by_column;
    std::set<size_t> duplicates;
    std::set<std::string> seen_predicates;
    for (size_t k = i; k < j; ++k) {
      const AstPredicate& predicate =
          static_cast<const PredicateNode*>(nodes[k].get())->predicate();
      // Exact-duplicate elimination is always safe, whatever the values.
      const std::string fingerprint = predicate.ToString();
      if (!seen_predicates.insert(fingerprint).second) {
        duplicates.insert(k);
        continue;
      }
      Absorb(by_column[predicate.column], predicate, k);
      indexes_by_column[predicate.column].push_back(k);
    }

    bool contradiction = false;
    std::string reason;
    std::set<size_t> keep;
    for (auto& [column, bounds] : by_column) {
      const auto kept =
          Finalize(bounds, indexes_by_column[column].size(),
                   indexes_by_column[column]);
      if (!kept.has_value()) {
        contradiction = true;
        reason = StrFormat("contradictory predicates on '%s'",
                           column.c_str());
        break;
      }
      keep.insert(kept->begin(), kept->end());
    }

    if (contradiction) {
      // Replace the whole run with an EmptyResultNode over whatever the
      // run scanned.
      rewritten.push_back(std::make_shared<EmptyResultNode>(reason));
    } else {
      for (size_t k = i; k < j; ++k) {
        if (duplicates.count(k) > 0) continue;
        if (keep.count(k) > 0) rewritten.push_back(nodes[k]);
      }
    }
    i = j;
  }
  *root = RelinkChain(std::move(rewritten));
  return Status::Ok();
}

Status PredicateReorderingRule::Apply(LqpNodePtr* root) {
  const StoredTableNode* stored = FindStoredTable(*root);
  if (stored == nullptr) return Status::Ok();

  std::vector<LqpNodePtr> nodes = FlattenChain(*root);

  // Annotate every predicate with its selectivity estimate.
  for (const auto& node : nodes) {
    if (node->kind() != LqpNodeKind::kPredicate) continue;
    auto* predicate_node = static_cast<PredicateNode*>(node.get());
    const auto column_index =
        stored->table()->ColumnIndex(predicate_node->predicate().column);
    FTS_RETURN_IF_ERROR(column_index.status());
    predicate_node->set_estimated_selectivity(EstimateTableSelectivity(
        *stored->table(), *column_index, predicate_node->predicate().op,
        predicate_node->predicate().literal));
  }

  // Sort each maximal run of adjacent predicates. In the root-first
  // vector, execution order is back to front, so the most selective
  // predicate must end up *last* in the run (closest to the table — it is
  // evaluated first and shrinks the input of the rest; Section V:
  // "predicates are evaluated as early as possible and in the most
  // efficient order").
  size_t i = 0;
  while (i < nodes.size()) {
    if (nodes[i]->kind() != LqpNodeKind::kPredicate) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < nodes.size() && nodes[j]->kind() == LqpNodeKind::kPredicate) {
      ++j;
    }
    std::stable_sort(
        nodes.begin() + static_cast<long>(i),
        nodes.begin() + static_cast<long>(j),
        [](const LqpNodePtr& a, const LqpNodePtr& b) {
          const auto sel_a = static_cast<const PredicateNode*>(a.get())
                                 ->estimated_selectivity();
          const auto sel_b = static_cast<const PredicateNode*>(b.get())
                                 ->estimated_selectivity();
          // Higher selectivity estimate first in root order = evaluated
          // later.
          return sel_a.value_or(1.0) > sel_b.value_or(1.0);
        });
    i = j;
  }
  *root = RelinkChain(std::move(nodes));
  return Status::Ok();
}

Status FusedScanFusionRule::Apply(LqpNodePtr* root) {
  std::vector<LqpNodePtr> nodes = FlattenChain(*root);
  std::vector<LqpNodePtr> rewritten;
  rewritten.reserve(nodes.size());

  size_t i = 0;
  while (i < nodes.size()) {
    if (nodes[i]->kind() != LqpNodeKind::kPredicate) {
      rewritten.push_back(nodes[i]);
      ++i;
      continue;
    }
    size_t j = i;
    while (j < nodes.size() && nodes[j]->kind() == LqpNodeKind::kPredicate) {
      ++j;
    }
    const size_t run = j - i;
    if (run >= min_chain_length_) {
      // Root-first order means nodes[j-1] executes first; the fused
      // operator evaluates predicates in its list order, so reverse.
      std::vector<AstPredicate> predicates;
      predicates.reserve(run);
      for (size_t k = j; k-- > i;) {
        predicates.push_back(
            static_cast<const PredicateNode*>(nodes[k].get())->predicate());
      }
      rewritten.push_back(
          std::make_shared<FusedScanNode>(std::move(predicates)));
    } else {
      for (size_t k = i; k < j; ++k) rewritten.push_back(nodes[k]);
    }
    i = j;
  }
  *root = RelinkChain(std::move(rewritten));
  return Status::Ok();
}

Status OptimizeLqp(LqpNodePtr* root, const OptimizerOptions& options) {
  FTS_CHECK(root != nullptr && *root != nullptr);
  if (options.enable_pushdown) {
    PredicatePushdownRule rule;
    FTS_RETURN_IF_ERROR(rule.Apply(root));
  }
  if (options.enable_simplification) {
    PredicateSimplificationRule rule;
    FTS_RETURN_IF_ERROR(rule.Apply(root));
  }
  if (options.enable_reordering) {
    PredicateReorderingRule rule;
    FTS_RETURN_IF_ERROR(rule.Apply(root));
  }
  if (options.enable_fusion) {
    FusedScanFusionRule rule(options.fusion_min_chain_length);
    FTS_RETURN_IF_ERROR(rule.Apply(root));
  }
  return Status::Ok();
}

}  // namespace fts
