#include "checks.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <tuple>

#include "nn/neighbor_sampler.hpp"

namespace servebench {

using gcod::Matrix;

namespace {

/** Replayed sampled requests per run. */
constexpr size_t kSampledReplays = 6;

/** Prediction of the benchmark's own sampled execution of @p q. */
int
ownSampledPrediction(ServingEngine &engine, const InferenceRequest &q,
                     int bits)
{
    auto bundle = engine.cache().peek(engine.keyFor(q.dataset, q.model));
    if (bundle == nullptr)
        throw std::runtime_error("sampled check: artifact not resident");
    gcod::SampledExecution se = gcod::buildSampledExecution(
        bundle->hostRecipe, bundle->synth.graph, q.sampleFanout,
        q.sampleSeed);
    Matrix logits =
        bits == 32
            ? gcod::referenceForward(se.recipe, bundle->hostFeatures)
            : gcod::quantizedForwardMixed(
                  gcod::quantizeSampled(se, bundle->quantized.at(bits)),
                  bundle->hostFeatures);
    return argmaxRow(logits, foldedRow(q.node, logits.rows()));
}

/** Full-pass replies against the engine's logits for their precision. */
bool
checkFullPassReplies(ServingEngine &engine,
                     const std::vector<const PhaseResult *> &phases,
                     std::ostream &log)
{
    std::map<std::tuple<std::string, std::string, int>,
             std::shared_ptr<const Matrix>>
        expected;
    size_t wrong = 0;
    for (const PhaseResult *p : phases)
        for (const Completion &c : p->done) {
            if (!c.reply.ok())
                continue;
            const InferenceRequest &q = p->sent[c.index];
            auto &m = expected[{q.dataset, q.model, c.reply.executedBits}];
            if (m == nullptr)
                m = engine.peekLogits(engine.keyFor(q.dataset, q.model),
                                      c.reply.executedBits);
            bool ok = m != nullptr &&
                      c.reply.prediction ==
                          argmaxRow(*m, foldedRow(q.node, m->rows()));
            if (!ok && wrong++ < 5)
                log << "wrong prediction " << c.reply.prediction << " for "
                    << q.dataset << "/" << q.model << " node " << q.node
                    << " at " << c.reply.executedBits << " bits\n";
        }
    return wrong == 0;
}

/** Resident logits of @p key equal a fresh forward over its bundle. */
bool
checkResidentLogits(ServingEngine &engine,
                    const gcod::serve::ArtifactKey &key,
                    const std::vector<int> &precisions, bool stored,
                    std::ostream &log)
{
    auto bundle = engine.cache().peek(key);
    if (bundle == nullptr || !bundle->hasHostExec()) {
        log << "no resident host execution for " << key.toString() << "\n";
        return false;
    }
    bool ok = true;
    for (int bits : precisions) {
        Matrix fresh =
            bits == 32 ? gcod::referenceForward(bundle->hostRecipe,
                                                bundle->hostFeatures)
                       : gcod::quantizedForwardMixed(
                             bundle->quantized.at(bits),
                             bundle->hostFeatures);
        bool same;
        if (stored) {
            auto it = bundle->storedLogits.find(bits);
            same = it != bundle->storedLogits.end() &&
                   sameBytes(it->second, fresh);
        } else {
            auto served = engine.peekLogits(key, bits);
            same = served != nullptr && sameBytes(*served, fresh);
        }
        if (!same) {
            log << (stored ? "stored" : "served") << " logits of "
                << key.toString() << " at " << bits
                << " bits differ from a fresh forward\n";
            ok = false;
        }
    }
    return ok;
}

bool
checkSampledReplays(ServingEngine &engine,
                    const std::vector<const PhaseResult *> &phases,
                    uint64_t seed, std::ostream &log)
{
    // Candidates in a fixed order (phase, request index), then a seeded
    // pick, so the same seed replays the same requests.
    std::vector<std::pair<const PhaseResult *, const Completion *>> cand;
    for (const PhaseResult *p : phases) {
        std::vector<const Completion *> ok;
        for (const Completion &c : p->done)
            if (c.reply.ok())
                ok.push_back(&c);
        std::sort(ok.begin(), ok.end(),
                  [](const Completion *a, const Completion *b) {
                      return a->index < b->index;
                  });
        for (const Completion *c : ok)
            cand.emplace_back(p, c);
    }
    gcod::Rng rng(seed ^ 0x7e91a7ull);
    rng.shuffle(cand);
    if (cand.size() > kSampledReplays)
        cand.resize(kSampledReplays);
    bool ok = true;
    for (const auto &[p, c] : cand) {
        const InferenceRequest &q = p->sent[c->index];
        InferenceReply again = engine.submit(q).get();
        bool same = again.ok() &&
                    (again.executedBits != c->reply.executedBits ||
                     again.prediction == c->reply.prediction) &&
                    c->reply.prediction ==
                        ownSampledPrediction(engine, q,
                                             c->reply.executedBits) &&
                    again.prediction ==
                        ownSampledPrediction(engine, q, again.executedBits);
        if (!same) {
            log << "sampled reply for " << q.dataset << "/" << q.model
                << " node " << q.node << " seed " << q.sampleSeed
                << " does not replay to the benchmark's own execution\n";
            ok = false;
        }
    }
    log << "sampled replays checked: " << cand.size() << "\n";
    return ok;
}

} // namespace

bool
checkOutputs(ServingEngine &engine, const Workload &w,
             const std::vector<const PhaseResult *> &phases, uint64_t seed,
             std::ostream &log)
{
    if (w.sampleFanout > 0)
        return checkSampledReplays(engine, phases, seed, log);
    bool ok = checkFullPassReplies(engine, phases, log);
    for (const auto &[dataset, family] : w.artifacts())
        ok = checkResidentLogits(engine, engine.keyFor(dataset, family), {32},
                                 false, log) &&
             ok;
    return ok;
}

bool
checkUpdatedLogits(ServingEngine &engine,
                   const gcod::serve::ArtifactKey &key, std::ostream &log)
{
    std::vector<int> precisions = {32};
    for (int b : engine.quantBits())
        precisions.push_back(b);
    return checkResidentLogits(engine, key, precisions, true, log);
}

} // namespace servebench
