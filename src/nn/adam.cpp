#include "adam.hpp"

#include <cmath>

#include "sim/parallel.hpp"

namespace gcod {

Adam::Adam(std::vector<Matrix *> params, AdamOptions opts)
    : params_(std::move(params)), opts_(opts)
{
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (Matrix *p : params_) {
        GCOD_ASSERT(p != nullptr, "null parameter");
        m_.emplace_back(p->rows(), p->cols(), 0.0f);
        v_.emplace_back(p->rows(), p->cols(), 0.0f);
    }
}

void
Adam::step(const std::vector<Matrix *> &grads)
{
    GCOD_ASSERT(grads.size() == params_.size(), "gradient count mismatch");
    ++t_;
    float bc1 = 1.0f - std::pow(opts_.beta1, float(t_));
    float bc2 = 1.0f - std::pow(opts_.beta2, float(t_));
    ParallelZone zone("adam");
    for (size_t i = 0; i < params_.size(); ++i) {
        Matrix &p = *params_[i];
        const Matrix &g = *grads[i];
        GCOD_ASSERT(p.sameShape(g), "param/grad shape mismatch");
        float *m = m_[i].data().data();
        float *v = v_[i].data().data();
        float *pd = p.data().data();
        const float *gd = g.data().data();
        // Elementwise and write-disjoint, so parallel ranges are exact.
        parallelFor(
            0, int64_t(p.data().size()),
            [&](const Range &r, size_t) {
                for (int64_t k = r.begin; k < r.end; ++k) {
                    float gk = gd[k] + opts_.weightDecay * pd[k];
                    m[k] = opts_.beta1 * m[k] + (1.0f - opts_.beta1) * gk;
                    v[k] = opts_.beta2 * v[k] +
                           (1.0f - opts_.beta2) * gk * gk;
                    float mhat = m[k] / bc1;
                    float vhat = v[k] / bc2;
                    pd[k] -=
                        opts_.lr * mhat / (std::sqrt(vhat) + opts_.eps);
                }
            },
            1 << 14);
    }
}

} // namespace gcod
