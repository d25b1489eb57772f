/**
 * @file
 * Output checks: a served prediction or resident logit matrix that
 * differs from the benchmark's own recomputation fails the run. Failed
 * requests (errors, timeouts, shedding) are not wrong outputs; they are
 * counted separately.
 */
#ifndef SERVEBENCH_CHECKS_HPP
#define SERVEBENCH_CHECKS_HPP

#include <iosfwd>

#include "traffic.hpp"

namespace servebench {

/**
 * Check every served reply of @p phases plus the workload's resident
 * logits, after the engine drained:
 *  - full-pass mixes: each prediction is the argmax of the engine's
 *    logits for (artifact, executed bits) at the folded row;
 *  - warm_mix: the fp32 logits are byte-identical to referenceForward
 *    over the resident bundle;
 *  - sampled mixes: a seeded subset is replayed; the replay and the
 *    original must match the benchmark's own sampled execution at the
 *    reply's executed bits.
 * Reasons for a failure go to @p log.
 */
bool checkOutputs(ServingEngine &engine, const Workload &w,
                  const std::vector<const PhaseResult *> &phases,
                  uint64_t seed, std::ostream &log);

/**
 * After updates to @p key: the logits the engine stored for every served
 * precision are byte-identical to a fresh forward over the final bundle.
 */
bool checkUpdatedLogits(ServingEngine &engine,
                        const gcod::serve::ArtifactKey &key,
                        std::ostream &log);

} // namespace servebench

#endif // SERVEBENCH_CHECKS_HPP
