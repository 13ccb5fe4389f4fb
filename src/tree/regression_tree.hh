/**
 * @file
 * Regression trees over the unit design space (paper Sec 2.4).
 *
 * The tree recursively bifurcates the sample along one input parameter
 * at a boundary value chosen to minimize the residual square error
 * E(k, b) between the partition means and the data (Eq 3-7). Splitting
 * stops when every terminal node holds at most p_min points. Each node
 * corresponds to a hyper-rectangle of the design space; those
 * hyper-rectangles later seed RBF centers and radii (Sec 2.5).
 */

#ifndef PPM_TREE_REGRESSION_TREE_HH
#define PPM_TREE_REGRESSION_TREE_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "dspace/design_space.hh"

namespace ppm::tree {

/**
 * Description of one tree node's region of the design space, exported
 * for RBF center generation and diagnostics. Coordinates are in unit
 * space.
 */
struct NodeInfo
{
    /** Centre of the node's hyper-rectangle. */
    dspace::UnitPoint center;
    /** Edge lengths of the hyper-rectangle. */
    std::vector<double> size;
    /** Depth in the tree; the root has depth 0. */
    int depth = 0;
    /** Number of sample points inside the region. */
    std::size_t count = 0;
    /** Mean response of those points. */
    double mean_response = 0.0;
    /** Population standard deviation of those points' responses. */
    double std_response = 0.0;
    /** True iff the node was not split further. */
    bool is_leaf = false;
    /** Sentinel for absent children. */
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    /** Index of the left child in the breadth-first node list. */
    std::size_t left_child = npos;
    /** Index of the right child in the breadth-first node list. */
    std::size_t right_child = npos;
};

/**
 * Record of one executed split, for significance analysis
 * (paper Table 5 and Fig 5).
 */
struct SplitRecord
{
    /** Input parameter index the node was split on. */
    std::size_t parameter = 0;
    /** Boundary value in unit space. */
    double value = 0.0;
    /** Depth of the split node; the root split has depth 1 (paper). */
    int depth = 0;
    /**
     * Reduction in summed square error achieved by the split
     * (SSE_parent - SSE_left - SSE_right); the significance measure.
     */
    double error_reduction = 0.0;
    /** Number of points in the split node. */
    std::size_t count = 0;
};

/**
 * Binary regression tree fitted to (unit point -> response) data.
 */
class RegressionTree
{
  public:
    /**
     * Build a tree.
     *
     * @param xs Sample inputs in the unit hypercube; all of equal
     *           dimensionality, at least one point.
     * @param ys Responses, ys.size() == xs.size().
     * @param p_min Maximum number of points allowed in a terminal node
     *              (the paper's p_min method parameter, >= 1).
     */
    RegressionTree(const std::vector<dspace::UnitPoint> &xs,
                   const std::vector<double> &ys, int p_min);

    /** Input dimensionality. */
    std::size_t dimensions() const { return dims_; }

    /** Number of nodes (internal + leaves). */
    std::size_t nodeCount() const { return node_count_; }

    /** Number of terminal nodes. */
    std::size_t leafCount() const { return leaf_count_; }

    /** Depth of the deepest node (root = 0). */
    int depth() const { return max_depth_; }

    /**
     * Predict the response at @p x: the mean of the leaf region
     * containing it. Throws std::invalid_argument when @p x does not
     * have dimensions() coordinates.
     */
    double predict(const dspace::UnitPoint &x) const;

    /**
     * Standard deviation of the training responses inside the leaf
     * region containing @p x (population convention; 0 for singleton
     * leaves). The adaptive sampler uses this as its
     * response-variability proxy. Throws like predict().
     */
    double leafStd(const dspace::UnitPoint &x) const;

    /**
     * All node regions in breadth-first order (root first). This is the
     * candidate-center ordering used by tree-ordered RBF subset
     * selection.
     */
    std::vector<NodeInfo> nodes() const;

    /**
     * All executed splits. Ordered breadth-first, i.e. shallow,
     * high-variance splits first — the paper's "most significant"
     * splits are the earliest entries when re-sorted by
     * error_reduction.
     */
    const std::vector<SplitRecord> &splits() const { return splits_; }

  private:
    struct Node
    {
        dspace::UnitPoint lower;
        dspace::UnitPoint upper;
        double mean = 0.0;
        double stddev = 0.0;
        std::size_t count = 0;
        int depth = 0;
        // Split description; parameter == npos for leaves.
        std::size_t split_param = npos;
        double split_value = 0.0;
        std::unique_ptr<Node> left;
        std::unique_ptr<Node> right;

        static constexpr std::size_t npos = static_cast<std::size_t>(-1);

        bool isLeaf() const { return split_param == npos; }
    };

    /** Result of the exhaustive split search over (k, b). */
    struct BestSplit
    {
        bool found = false;
        std::size_t parameter = 0;
        double value = 0.0;
        double error_reduction = 0.0;
    };

    void build(Node *node, std::vector<std::size_t> &indices,
               const std::vector<dspace::UnitPoint> &xs,
               const std::vector<double> &ys, int p_min);

    /** The leaf whose region contains @p x (dimension-checked). */
    const Node &leafFor(const dspace::UnitPoint &x,
                        const char *caller) const;

    BestSplit findBestSplit(const std::vector<std::size_t> &indices,
                            const std::vector<dspace::UnitPoint> &xs,
                            const std::vector<double> &ys) const;

    std::unique_ptr<Node> root_;
    std::size_t dims_ = 0;
    std::size_t node_count_ = 0;
    std::size_t leaf_count_ = 0;
    int max_depth_ = 0;
    std::vector<SplitRecord> splits_;
};

} // namespace ppm::tree

#endif // PPM_TREE_REGRESSION_TREE_HH
