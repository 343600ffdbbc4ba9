#include "asp/proof.hpp"

#include <utility>

namespace aspmt::asp {

void ProofLog::end_line() {
  buf_ += '\n';
  if (buf_.size() >= kChunkBytes) seal();
}

void ProofLog::seal() {
  if (buf_.empty()) return;
  sealed_bytes_ += buf_.size();
  sealed_.push_back(std::move(buf_));
  buf_ = std::string();
  buf_.reserve(kChunkBytes + kChunkBytes / 16);
  if (sink_) sink_(sealed_.back());
}

void ProofLog::set_chunk_sink(ChunkSink sink) { sink_ = std::move(sink); }

std::string ProofLog::text() const {
  std::string out;
  out.reserve(size_bytes());
  for (const std::string& chunk : sealed_) out += chunk;
  out += buf_;
  return out;
}

std::string ProofLog::release() {
  sink_ = nullptr;
  const std::size_t total = size_bytes();
  if (!buf_.empty()) sealed_.push_back(std::move(buf_));
  std::string out;
  if (sealed_.size() == 1) {
    out = std::move(sealed_.front());
  } else {
    out.reserve(total);
    for (; !sealed_.empty(); sealed_.pop_front()) {
      out += sealed_.front();  // each chunk is freed once copied
    }
  }
  sealed_.clear();
  buf_.clear();
  sealed_bytes_ = 0;
  return out;
}

void ProofLog::append_int(std::int64_t v) {
  buf_ += ' ';
  buf_ += std::to_string(v);
}

void ProofLog::append_lit(Lit l) { append_int(proof_int(l)); }

void ProofLog::clause_step(char kind, std::span<const Lit> lits) {
  buf_ += kind;
  for (const Lit l : lits) append_lit(l);
  buf_ += " 0";
  end_line();
}

void ProofLog::def_sum(std::uint32_t sum,
                       std::span<const std::pair<Lit, std::int64_t>> terms) {
  buf_ += 'S';
  append_int(sum);
  append_int(static_cast<std::int64_t>(terms.size()));
  for (const auto& [guard, weight] : terms) {
    append_lit(guard);
    append_int(weight);
  }
  end_line();
}

void ProofLog::def_sum_bound(std::uint32_t sum, std::int64_t bound, Lit activation) {
  buf_ += "SB";
  append_int(sum);
  append_int(bound);
  append_int(activation == kLitUndef ? 0 : proof_int(activation));
  end_line();
}

void ProofLog::def_sum_lower_bound(std::uint32_t sum, std::int64_t bound,
                                   Lit activation) {
  buf_ += "SL";
  append_int(sum);
  append_int(bound);
  append_int(activation == kLitUndef ? 0 : proof_int(activation));
  end_line();
}

void ProofLog::def_node(std::uint32_t node) {
  buf_ += 'N';
  append_int(node);
  end_line();
}

void ProofLog::def_edge(std::uint32_t edge, std::uint32_t from, std::uint32_t to,
                        std::int64_t weight, std::span<const Lit> guards) {
  buf_ += 'E';
  append_int(edge);
  append_int(from);
  append_int(to);
  append_int(weight);
  append_int(static_cast<std::int64_t>(guards.size()));
  for (const Lit g : guards) append_lit(g);
  end_line();
}

void ProofLog::def_node_bound(std::uint32_t node, std::int64_t bound,
                              Lit activation) {
  buf_ += "NB";
  append_int(node);
  append_int(bound);
  append_int(activation == kLitUndef ? 0 : proof_int(activation));
  end_line();
}

void ProofLog::def_objective_linear(std::size_t objective, std::uint32_t sum) {
  buf_ += 'O';
  append_int(static_cast<std::int64_t>(objective));
  buf_ += " L";
  append_int(sum);
  end_line();
}

void ProofLog::def_objective_diff(std::size_t objective, std::uint32_t node) {
  buf_ += 'O';
  append_int(static_cast<std::int64_t>(objective));
  buf_ += " D";
  append_int(node);
  end_line();
}

void ProofLog::def_objective_term(std::size_t objective,
                                  std::string_view tree_tokens) {
  buf_ += 'O';
  append_int(static_cast<std::int64_t>(objective));
  buf_ += ' ';
  buf_ += tree_tokens;
  end_line();
}

void ProofLog::def_objective_bound(std::size_t objective, std::int64_t bound,
                                   Lit activation) {
  buf_ += "OB";
  append_int(static_cast<std::int64_t>(objective));
  append_int(bound);
  append_int(activation == kLitUndef ? 0 : proof_int(activation));
  end_line();
}

void ProofLog::def_rule(Lit head, Lit body, std::span<const Lit> positive_heads) {
  buf_ += "PR";
  append_lit(head);
  append_lit(body);
  append_int(static_cast<std::int64_t>(positive_heads.size()));
  for (const Lit h : positive_heads) append_lit(h);
  end_line();
}

void ProofLog::def_floor_pair(std::uint32_t floor_sum, Lit lit,
                              std::uint32_t message, std::uint32_t src_resource,
                              std::uint32_t dst_resource) {
  buf_ += "FP";
  append_int(floor_sum);
  append_lit(lit);
  append_int(message);
  append_int(src_resource);
  append_int(dst_resource);
  end_line();
}

void ProofLog::def_floor_edge(std::uint32_t edge, std::uint32_t message,
                              std::size_t src_option, std::size_t dst_option) {
  buf_ += "FE";
  append_int(edge);
  append_int(message);
  append_int(static_cast<std::int64_t>(src_option));
  append_int(static_cast<std::int64_t>(dst_option));
  end_line();
}

void ProofLog::delete_clause(std::span<const Lit> lits, ProofId id) {
  buf_ += 'D';
  for (const Lit l : lits) append_lit(l);
  buf_ += " 0";
  if (id != kNoProofId) {
    append_int(id);
    buf_ += " 0";
  }
  end_line();
}

ProofId ProofLog::learnt_clause(std::span<const Lit> lits,
                               std::span<const ProofId> hints) {
  buf_ += 'L';
  for (const Lit l : lits) append_lit(l);
  buf_ += " 0";
  if (!hints.empty()) {
    for (const ProofId h : hints) append_int(h);
    buf_ += " 0";
  }
  end_line();
  return next_id();
}

ProofId ProofLog::theory_clause(const TheoryJustification& just,
                                std::span<const Lit> lits) {
  buf_ += 'T';
  switch (just.tag) {
    case TheoryTag::DiffCycle: buf_ += " DC"; break;
    case TheoryTag::DiffBound: buf_ += " DB"; break;
    case TheoryTag::LinearBound: buf_ += " LS"; break;
    case TheoryTag::Unfounded: buf_ += " UF"; break;
    case TheoryTag::Dominance: buf_ += " DOM"; break;
    case TheoryTag::LinearLower: buf_ += " LL"; break;
    case TheoryTag::CombinatorBound: buf_ += " CB"; break;
  }
  for (const std::int64_t v : just.payload) append_int(v);
  buf_ += " ;";
  for (const Lit l : lits) append_lit(l);
  buf_ += " 0";
  end_line();
  return next_id();
}

ProofId ProofLog::guarded_clause(Lit guard, std::span<const Lit> lits) {
  buf_ += 'G';
  append_lit(guard);
  for (const Lit l : lits) append_lit(l);
  buf_ += " 0";
  end_line();
  return next_id();
}

void ProofLog::feasible_point(std::span<const std::int64_t> point) {
  buf_ += 'F';
  append_int(static_cast<std::int64_t>(point.size()));
  for (const std::int64_t v : point) append_int(v);
  buf_ += " 0";
  end_line();
}

}  // namespace aspmt::asp
