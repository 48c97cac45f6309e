#include "src/dist/shard_worker.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "src/compat/ms_signed_bfs.h"
#include "src/team/greedy.h"
#include "src/team/task_view.h"
#include "src/util/fault_injection.h"
#include "src/util/logging.h"

namespace tfsn {

ShardWorker::ShardWorker(uint32_t shard, const SignedGraph& graph,
                         const SkillAssignment& skills, const ShardPlan& plan,
                         Transport* transport, OracleFactory oracle_factory,
                         ShardWorkerOptions options)
    : shard_(shard),
      graph_(graph),
      skills_(skills),
      plan_(plan),
      transport_(transport),
      options_(options),
      oracle_(oracle_factory(graph)),
      sbph_(oracle_ != nullptr && oracle_->kind() == CompatKind::kSBPH) {
  TFSN_CHECK(oracle_ != nullptr);
  TFSN_CHECK(shard < plan.num_shards());
}

void ShardWorker::Run() {
  for (;;) {
    Message msg;
    const Status st = transport_->Recv(shard_, /*timeout_ms=*/-1, &msg);
    if (st.IsUnavailable()) return;  // transport closed: clean shutdown
    if (!st.ok()) continue;          // malformed frame: skip it
    // A stalled worker misses the message entirely; the coordinator's
    // bounded gather turns that into a typed DeadlineExceeded.
    if (TFSN_FAULT_POINT("dist.worker_stall")) continue;
    Dispatch(msg);
  }
}

void ShardWorker::Dispatch(const Message& msg) {
  switch (msg.type) {
    case MsgType::kFormBegin: HandleFormBegin(msg); return;
    case MsgType::kEvalStep: HandleEvalStep(msg); return;
    case MsgType::kCountLe: HandleCountLe(msg); return;
    case MsgType::kPickRank: HandlePickRank(msg); return;
    case MsgType::kCostEval: HandleCostEval(msg); return;
    case MsgType::kAbort:
      if (msg.run == run_) run_active_ = false;
      return;
    case MsgType::kRowSlice:
      BufferSlice(msg);
      return;
    default:
      return;  // replies are never addressed to workers; drop
  }
}

void ShardWorker::ResetSeedState() {
  team_.clear();
  own_rows_.clear();
  slices_.clear();
  candidates_.clear();
  candidates_step_ = 0;
}

void ShardWorker::BufferSlice(const Message& msg) {
  // Drop only what is provably stale: a past run, or a past seed of the
  // current run. Everything else may be an early arrival — the owner can
  // race ahead of us on a broadcast — and is parked until we catch up.
  if (msg.run < run_) return;
  if (msg.run == run_ && msg.seed < seed_) return;
  pending_slices_[{msg.run, msg.seed, msg.new_member}] =
      Slice{msg.slice_comp, msg.slice_dist};
}

void ShardWorker::HandleFormBegin(const Message& msg) {
  run_ = msg.run;
  run_active_ = true;
  user_policy_ = static_cast<UserPolicy>(msg.user_policy);
  pool_cap_ = msg.pool_cap;
  ResetSeedState();
  seed_ = 0;

  // The coordinator sends task.skills() (sorted, deduplicated, validated);
  // re-validate id bounds anyway — a worker never crashes on wire input.
  std::vector<SkillId> task_skills;
  for (SkillId s : msg.task_skills) {
    if (s < skills_.num_skills()) task_skills.push_back(s);
  }
  const std::vector<NodeId> universe = HolderUniverse(skills_, task_skills);
  universe_by_shard_.assign(plan_.num_shards(), {});
  local_index_.clear();
  for (NodeId v : universe) {
    universe_by_shard_[plan_.ShardOf(v)].push_back(v);
  }
  const std::vector<NodeId>& mine = universe_by_shard_[shard_];
  local_index_.reserve(mine.size());
  for (uint32_t i = 0; i < mine.size(); ++i) local_index_[mine[i]] = i;

  // Prewarm the owned slice of the row working set through the batch row
  // engine, one full block per thread; bounded pinning, misses computed in
  // parallel.
  if (!mine.empty()) {
    const uint32_t threads = std::max<uint32_t>(1, options_.prewarm_threads);
    oracle_->StreamRows(mine, threads,
                        [](size_t, const CompatibilityOracle::Row&) {},
                        kMsBfsBatchSize * threads);
  }
}

Status ShardWorker::AbsorbNewMember(const Message& msg) {
  const NodeId m = msg.new_member;
  if (m >= graph_.num_nodes()) {
    return Status::Internal("team member " + std::to_string(m) +
                            " out of range");
  }
  team_.push_back(m);
  if (plan_.ShardOf(m) == shard_) {
    std::shared_ptr<const CompatibilityOracle::Row> row =
        oracle_->GetRowShared(m);
    // Scatter the new member's row to every peer with universe nodes to
    // evaluate, restricted to that peer's slice (ascending local order).
    for (uint32_t t = 0; t < plan_.num_shards(); ++t) {
      if (t == shard_) continue;
      const std::vector<NodeId>& nodes = universe_by_shard_[t];
      if (nodes.empty()) continue;
      Message slice;
      slice.type = MsgType::kRowSlice;
      slice.run = msg.run;
      slice.seed = msg.seed;
      slice.step = msg.step;
      slice.new_member = m;
      slice.slice_comp.assign((nodes.size() + 63) / 64, 0);
      slice.slice_dist.reserve(nodes.size());
      for (size_t i = 0; i < nodes.size(); ++i) {
        const NodeId v = nodes[i];
        if (row->comp[v] != 0) slice.slice_comp[i >> 6] |= 1ULL << (i & 63);
        slice.slice_dist.push_back(row->dist[v]);
      }
      // A dropped slice surfaces at the destination as a bounded-wait
      // timeout; the run degrades to a typed error there.
      (void)transport_->Send(shard_, t, slice);
    }
    own_rows_[m] = std::move(row);
    return Status::OK();
  }

  // Remote member. We only need its row if we can ever field a candidate.
  const size_t slice_size = universe_by_shard_[shard_].size();
  if (slice_size == 0) return Status::OK();

  // Drop parked slices from epochs that can never be adopted any more,
  // then adopt the one we want if it already raced in.
  const auto adopt = [&]() -> bool {
    pending_slices_.erase(
        pending_slices_.begin(),
        pending_slices_.lower_bound(std::make_tuple(run_, seed_, NodeId{0})));
    const auto it = pending_slices_.find(std::make_tuple(run_, seed_, m));
    if (it == pending_slices_.end()) return false;
    Slice slice = std::move(it->second);
    pending_slices_.erase(it);
    if (slice.dist.size() != slice_size ||
        slice.comp.size() != (slice_size + 63) / 64) {
      return false;  // malformed; let the wait time out
    }
    slices_[m] = std::move(slice);
    return true;
  };

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.recv_timeout_ms);
  while (slices_.find(m) == slices_.end()) {
    if (adopt()) break;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return Status::DeadlineExceeded(
          "shard " + std::to_string(shard_) + ": row slice for member " +
          std::to_string(m) + " never arrived");
    }
    const int64_t remaining_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1;
    Message sm;
    TFSN_RETURN_NOT_OK(transport_->Recv(shard_, remaining_ms, &sm));
    if (sm.type == MsgType::kAbort) {
      if (sm.run == run_) run_active_ = false;
      if (sm.run >= run_) {
        return Status::Unavailable("run aborted by coordinator");
      }
      continue;
    }
    if (sm.type != MsgType::kRowSlice) continue;  // nothing else can pend
    BufferSlice(sm);  // adopted (or rejected) at the top of the loop
  }
  return Status::OK();
}

Status ShardWorker::DirComp(NodeId x, NodeId v, bool* out) const {
  const auto own = own_rows_.find(x);
  if (own != own_rows_.end()) {
    *out = own->second->comp[v] != 0;
    return Status::OK();
  }
  const auto slice = slices_.find(x);
  if (slice == slices_.end()) {
    return Status::Internal("missing row state for team member " +
                            std::to_string(x));
  }
  const auto li = local_index_.find(v);
  if (li == local_index_.end()) {
    return Status::Internal("candidate " + std::to_string(v) +
                            " not in the local universe slice");
  }
  const uint32_t i = li->second;
  *out = (slice->second.comp[i >> 6] >> (i & 63)) & 1;
  return Status::OK();
}

Status ShardWorker::DirDist(NodeId x, NodeId v, uint32_t* out) const {
  const auto own = own_rows_.find(x);
  if (own != own_rows_.end()) {
    *out = own->second->dist[v];
    return Status::OK();
  }
  const auto slice = slices_.find(x);
  if (slice == slices_.end()) {
    return Status::Internal("missing row state for team member " +
                            std::to_string(x));
  }
  const auto li = local_index_.find(v);
  if (li == local_index_.end()) {
    return Status::Internal("candidate " + std::to_string(v) +
                            " not in the local universe slice");
  }
  *out = slice->second.dist[li->second];
  return Status::OK();
}

Status ShardWorker::PairCompatible(NodeId x, NodeId v, bool* out) {
  bool fwd = false;
  TFSN_RETURN_NOT_OK(DirComp(x, v, &fwd));
  if (!sbph_) {
    *out = fwd;
    return Status::OK();
  }
  // SBPH symmetric closure: either direction suffices. The reverse
  // direction reads the candidate's own (owned) row.
  *out = fwd || oracle_->GetRow(v).comp[x] != 0;
  return Status::OK();
}

Status ShardWorker::PairDistance(NodeId x, NodeId v, uint32_t* out) {
  uint32_t fwd = 0;
  TFSN_RETURN_NOT_OK(DirDist(x, v, &fwd));
  if (!sbph_) {
    *out = fwd;
    return Status::OK();
  }
  *out = std::min(fwd, oracle_->GetRow(v).dist[x]);
  return Status::OK();
}

void ShardWorker::HandleEvalStep(const Message& msg) {
  if (!run_active_ || msg.run != run_) return;  // stale epoch: drop
  if (msg.step == 0 || msg.seed != seed_) {
    ResetSeedState();
    seed_ = msg.seed;
  }
  if (msg.skill >= skills_.num_skills()) {
    ReplyError(msg, MsgType::kCandidateReply,
               Status::Internal("skill id out of range"));
    return;
  }
  Status st = AbsorbNewMember(msg);
  if (!st.ok()) {
    // No reply when the run was aborted mid-wait — the coordinator is gone.
    if (run_active_) ReplyError(msg, MsgType::kCandidateReply, st);
    return;
  }

  // Local candidates: holders of the requested skill that we own, not in
  // the team, compatible with every current member. Holder lists are
  // ascending, so the filtered list is ascending too — the per-shard
  // fragment of the single-node path's global candidate order.
  candidates_.clear();
  candidates_step_ = msg.step;
  for (NodeId v : skills_.Holders(msg.skill)) {
    if (plan_.ShardOf(v) != shard_) continue;
    if (std::find(team_.begin(), team_.end(), v) != team_.end()) continue;
    bool ok = true;
    for (NodeId x : team_) {
      bool comp = false;
      st = PairCompatible(x, v, &comp);
      if (!st.ok()) {
        ReplyError(msg, MsgType::kCandidateReply, st);
        return;
      }
      if (!comp) {
        ok = false;
        break;
      }
    }
    if (ok) candidates_.push_back(v);
  }

  Message reply;
  reply.count = candidates_.size();
  switch (user_policy_) {
    case UserPolicy::kMinDistance: {
      // First strict minimum in ascending candidate order, with the
      // single-node path's candidate-level early break (a pure pruning:
      // the selected best always ran to completion, so its score is the
      // exact worst-case distance). The local (score, id)-minimum merged
      // with its peers reproduces the global first-strict-minimum.
      NodeId best = kInvalidNode;
      uint64_t best_score = ~0ULL;
      for (NodeId v : candidates_) {
        uint32_t worst = 0;
        bool aborted = false;
        for (NodeId x : team_) {
          uint32_t d = 0;
          st = PairDistance(x, v, &d);
          if (!st.ok()) {
            ReplyError(msg, MsgType::kCandidateReply, st);
            return;
          }
          worst = std::max(worst, d);
          if (worst >= best_score) {
            aborted = true;
            break;
          }
        }
        if (!aborted && worst < best_score) {
          best_score = worst;
          best = v;
        }
      }
      if (best != kInvalidNode) {
        reply.has_best = 1;
        reply.best_id = best;
        reply.best_score = best_score;
      }
      break;
    }
    case UserPolicy::kMostCompatible: {
      // The future-holder pool is a *global* construction — identical on
      // every shard and to the single-node path: concatenated holder
      // lists, sorted, deduplicated, evenly thinned.
      std::vector<NodeId> pool;
      for (SkillId s : msg.rest) {
        if (s >= skills_.num_skills()) continue;
        auto hs = skills_.Holders(s);
        pool.insert(pool.end(), hs.begin(), hs.end());
      }
      std::sort(pool.begin(), pool.end());
      pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
      ThinPoolEvenly(&pool, pool_cap_);
      NodeId best = kInvalidNode;
      int64_t best_score = -1;
      for (NodeId v : candidates_) {
        const auto& row = oracle_->GetRow(v);
        int64_t score = 0;
        for (NodeId w : pool) score += row.comp[w] != 0;
        if (score > best_score) {
          best_score = score;
          best = v;
        }
      }
      if (best != kInvalidNode) {
        reply.has_best = 1;
        reply.best_id = best;
        reply.best_score = static_cast<uint64_t>(best_score);
      }
      break;
    }
    case UserPolicy::kRandom:
      // The coordinator draws the rank; we only report the local count.
      break;
  }
  Reply(msg, MsgType::kCandidateReply, std::move(reply));
}

void ShardWorker::HandleCountLe(const Message& msg) {
  if (!run_active_ || msg.run != run_ || msg.seed != seed_ ||
      msg.step != candidates_step_) {
    return;  // stale probe; the coordinator's gather will time out
  }
  Message reply;
  reply.count = static_cast<uint64_t>(
      std::upper_bound(candidates_.begin(), candidates_.end(),
                       static_cast<NodeId>(msg.arg)) -
      candidates_.begin());
  Reply(msg, MsgType::kCountReply, std::move(reply));
}

void ShardWorker::HandlePickRank(const Message& msg) {
  if (!run_active_ || msg.run != run_ || msg.seed != seed_ ||
      msg.step != candidates_step_) {
    return;
  }
  if (msg.arg >= candidates_.size()) {
    ReplyError(msg, MsgType::kPickReply,
               Status::Internal("rank " + std::to_string(msg.arg) +
                                " out of range (have " +
                                std::to_string(candidates_.size()) +
                                " candidates)"));
    return;
  }
  Message reply;
  reply.best_id = candidates_[static_cast<size_t>(msg.arg)];
  Reply(msg, MsgType::kPickReply, std::move(reply));
}

void ShardWorker::HandleCostEval(const Message& msg) {
  if (!run_active_ || msg.run != run_) return;
  Message reply;
  for (NodeId x : msg.team) {
    if (x >= graph_.num_nodes()) {
      ReplyError(msg, MsgType::kCostReply,
                 Status::Internal("team member out of range"));
      return;
    }
  }
  for (NodeId x : msg.team) {
    if (plan_.ShardOf(x) != shard_) continue;
    const auto& row = oracle_->GetRow(x);
    reply.members.push_back(x);
    for (NodeId y : msg.team) {
      reply.dists.push_back(x == y ? 0 : row.dist[y]);
    }
  }
  Reply(msg, MsgType::kCostReply, std::move(reply));
}

void ShardWorker::Reply(const Message& req, MsgType type, Message msg) {
  msg.type = type;
  msg.src = shard_;
  msg.run = req.run;
  msg.seed = req.seed;
  msg.step = req.step;
  // A dropped reply surfaces as a gather timeout at the coordinator.
  (void)transport_->Send(shard_, transport_->coordinator(), msg);
}

void ShardWorker::ReplyError(const Message& req, MsgType type,
                             const Status& st) {
  Message msg;
  msg.status = st.code();
  msg.error = st.message();
  Reply(req, type, std::move(msg));
}

}  // namespace tfsn
