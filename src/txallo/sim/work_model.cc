#include "txallo/sim/work_model.h"

#include <algorithm>
#include <string>

namespace txallo::sim {

Status RouteAccount(chain::AccountId account,
                    const alloc::Allocation& allocation,
                    UnassignedPolicy policy, alloc::ShardId* shard) {
  if (allocation.IsAssigned(account)) {
    *shard = allocation.shard_of(account);
  } else if (policy == UnassignedPolicy::kHashFallback &&
             allocation.num_shards() > 0) {
    *shard = static_cast<alloc::ShardId>(account % allocation.num_shards());
  } else {
    return Status::FailedPrecondition("unassigned account " +
                                      std::to_string(account) +
                                      " submitted to executor");
  }
  return Status::OK();
}

Status RouteTransaction(const chain::Transaction& tx,
                        const alloc::Allocation& allocation,
                        UnassignedPolicy policy,
                        std::vector<alloc::ShardId>* shards) {
  shards->clear();
  for (chain::AccountId a : tx.accounts()) {
    alloc::ShardId s;
    TXALLO_RETURN_NOT_OK(RouteAccount(a, allocation, policy, &s));
    if (std::find(shards->begin(), shards->end(), s) == shards->end()) {
      shards->push_back(s);
    }
  }
  return Status::OK();
}

}  // namespace txallo::sim
