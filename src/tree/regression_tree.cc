#include "tree/regression_tree.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>

namespace ppm::tree {

namespace {

/** Summed square error about the mean for the given responses. */
double
sumSquaredError(const std::vector<std::size_t> &indices,
                const std::vector<double> &ys)
{
    if (indices.empty())
        return 0.0;
    double sum = 0.0;
    for (std::size_t i : indices)
        sum += ys[i];
    const double mean = sum / static_cast<double>(indices.size());
    double sse = 0.0;
    for (std::size_t i : indices)
        sse += (ys[i] - mean) * (ys[i] - mean);
    return sse;
}

} // namespace

RegressionTree::RegressionTree(const std::vector<dspace::UnitPoint> &xs,
                               const std::vector<double> &ys, int p_min)
{
    assert(!xs.empty());
    assert(xs.size() == ys.size());
    assert(p_min >= 1);
    dims_ = xs.front().size();

    root_ = std::make_unique<Node>();
    root_->lower.assign(dims_, 0.0);
    root_->upper.assign(dims_, 1.0);
    root_->depth = 0;

    std::vector<std::size_t> all(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        all[i] = i;

    // Breadth-first construction so splits_ lists shallow splits first.
    struct WorkItem
    {
        Node *node;
        std::vector<std::size_t> indices;
    };
    std::deque<WorkItem> queue;
    queue.push_back({root_.get(), std::move(all)});

    while (!queue.empty()) {
        WorkItem item = std::move(queue.front());
        queue.pop_front();
        Node *node = item.node;
        const auto &indices = item.indices;

        ++node_count_;
        max_depth_ = std::max(max_depth_, node->depth);

        double sum = 0.0, sum_sq = 0.0;
        for (std::size_t i : indices) {
            sum += ys[i];
            sum_sq += ys[i] * ys[i];
        }
        node->count = indices.size();
        if (!indices.empty()) {
            const double n = static_cast<double>(indices.size());
            node->mean = sum / n;
            node->stddev = std::sqrt(
                std::max(0.0, sum_sq / n - node->mean * node->mean));
        }

        if (indices.size() <= static_cast<std::size_t>(p_min)) {
            ++leaf_count_;
            continue;
        }

        const BestSplit best = findBestSplit(indices, xs, ys);
        if (!best.found) {
            // All points coincide along every dimension; cannot split.
            ++leaf_count_;
            continue;
        }

        node->split_param = best.parameter;
        node->split_value = best.value;

        SplitRecord rec;
        rec.parameter = best.parameter;
        rec.value = best.value;
        rec.depth = node->depth + 1;
        rec.error_reduction = best.error_reduction;
        rec.count = indices.size();
        splits_.push_back(rec);

        auto make_child = [&](bool is_left) {
            auto child = std::make_unique<Node>();
            child->lower = node->lower;
            child->upper = node->upper;
            if (is_left)
                child->upper[best.parameter] = best.value;
            else
                child->lower[best.parameter] = best.value;
            child->depth = node->depth + 1;
            return child;
        };
        node->left = make_child(true);
        node->right = make_child(false);

        std::vector<std::size_t> left_idx, right_idx;
        left_idx.reserve(indices.size());
        right_idx.reserve(indices.size());
        for (std::size_t i : indices) {
            if (xs[i][best.parameter] <= best.value)
                left_idx.push_back(i);
            else
                right_idx.push_back(i);
        }
        assert(!left_idx.empty() && !right_idx.empty());

        queue.push_back({node->left.get(), std::move(left_idx)});
        queue.push_back({node->right.get(), std::move(right_idx)});
    }
}

RegressionTree::BestSplit
RegressionTree::findBestSplit(const std::vector<std::size_t> &indices,
                              const std::vector<dspace::UnitPoint> &xs,
                              const std::vector<double> &ys) const
{
    BestSplit best;
    double best_sse = std::numeric_limits<double>::infinity();
    const double node_sse = sumSquaredError(indices, ys);

    std::vector<std::size_t> sorted(indices);
    for (std::size_t k = 0; k < dims_; ++k) {
        std::sort(sorted.begin(), sorted.end(),
                  [&](std::size_t a, std::size_t b) {
                      return xs[a][k] < xs[b][k];
                  });

        // Scan boundaries between consecutive distinct values, keeping
        // running sums so each candidate costs O(1).
        double left_sum = 0.0, left_sq = 0.0;
        double total_sum = 0.0, total_sq = 0.0;
        for (std::size_t i : sorted) {
            total_sum += ys[i];
            total_sq += ys[i] * ys[i];
        }
        const double n_total = static_cast<double>(sorted.size());

        for (std::size_t pos = 0; pos + 1 < sorted.size(); ++pos) {
            const double y = ys[sorted[pos]];
            left_sum += y;
            left_sq += y * y;
            const double xv = xs[sorted[pos]][k];
            const double xnext = xs[sorted[pos + 1]][k];
            if (xnext <= xv)
                continue;

            const double n_left = static_cast<double>(pos + 1);
            const double n_right = n_total - n_left;
            const double right_sum = total_sum - left_sum;
            const double right_sq = total_sq - left_sq;
            const double sse =
                (left_sq - left_sum * left_sum / n_left) +
                (right_sq - right_sum * right_sum / n_right);
            if (sse < best_sse) {
                best_sse = sse;
                best.found = true;
                best.parameter = k;
                best.value = 0.5 * (xv + xnext);
                best.error_reduction = node_sse - sse;
            }
        }
    }
    return best;
}

const RegressionTree::Node &
RegressionTree::leafFor(const dspace::UnitPoint &x,
                        const char *caller) const
{
    // Checked unconditionally (not just assert): a short point would
    // read x[split_param] out of bounds in release builds. Typed to
    // match RbfNetwork::predict so callers report both the same way.
    if (x.size() != dims_)
        throw std::invalid_argument(
            std::string("tree::RegressionTree::") + caller +
            ": point has " + std::to_string(x.size()) +
            " dimensions, tree has " + std::to_string(dims_));
    const Node *node = root_.get();
    while (!node->isLeaf()) {
        node = x[node->split_param] <= node->split_value
            ? node->left.get() : node->right.get();
    }
    return *node;
}

double
RegressionTree::predict(const dspace::UnitPoint &x) const
{
    return leafFor(x, "predict").mean;
}

double
RegressionTree::leafStd(const dspace::UnitPoint &x) const
{
    return leafFor(x, "leafStd").stddev;
}

std::vector<NodeInfo>
RegressionTree::nodes() const
{
    std::vector<NodeInfo> out;
    out.reserve(node_count_);
    std::deque<const Node *> queue{root_.get()};
    std::size_t next_index = 1;
    while (!queue.empty()) {
        const Node *node = queue.front();
        queue.pop_front();

        NodeInfo info;
        info.center.resize(dims_);
        info.size.resize(dims_);
        for (std::size_t k = 0; k < dims_; ++k) {
            info.center[k] = 0.5 * (node->lower[k] + node->upper[k]);
            info.size[k] = node->upper[k] - node->lower[k];
        }
        info.depth = node->depth;
        info.count = node->count;
        info.mean_response = node->mean;
        info.std_response = node->stddev;
        info.is_leaf = node->isLeaf();

        if (!node->isLeaf()) {
            info.left_child = next_index++;
            info.right_child = next_index++;
            queue.push_back(node->left.get());
            queue.push_back(node->right.get());
        }
        out.push_back(std::move(info));
    }
    return out;
}

} // namespace ppm::tree
