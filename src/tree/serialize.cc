#include "tree/serialize.h"

#include <functional>
#include <sstream>

#include "fault/file.h"
#include "util/exact_double.h"
#include "util/integrity.h"

namespace popp {
namespace {

/// Parse depth cap: legitimate trees are bounded by the builder's depth
/// limits (double digits); a hostile document nesting thousands of "split"
/// tokens must not get to overflow the parser's recursion stack.
constexpr size_t kMaxParseDepth = 512;

void WriteHist(const std::vector<uint64_t>& hist, std::ostringstream& out) {
  out << " hist " << hist.size();
  for (uint64_t c : hist) out << " " << c;
  out << "\n";
}

/// Body parser over the footer-stripped payload; failures are reported as
/// kInvalidArgument and rebranded kDataLoss by ParseTree.
Result<DecisionTree> ParseTreePayload(const std::string& payload,
                                      bool had_footer) {
  std::istringstream in(payload);
  std::string magic, version;
  if (!(in >> magic >> version) || magic != "popp-tree" ||
      (version != "v1" && version != "v2")) {
    return Status::InvalidArgument("not a popp-tree document");
  }
  if (version == "v2" && !had_footer) {
    return Status::InvalidArgument(
        "popp-tree v2 requires an integrity footer and none was found — "
        "file truncated?");
  }
  // Any count a well-formed document states costs at least two bytes of
  // text; cap counts before allocating so hostile documents cannot demand
  // gigabytes.
  const size_t count_limit = payload.size();

  DecisionTree tree;
  Status error = Status::Ok();

  std::function<NodeId(size_t)> parse_node = [&](size_t depth) -> NodeId {
    if (!error.ok()) return kNoNode;
    if (depth > kMaxParseDepth) {
      std::ostringstream oss;
      oss << "tree nesting exceeds the depth limit of " << kMaxParseDepth;
      error = Status::InvalidArgument(oss.str());
      return kNoNode;
    }
    std::string kind;
    if (!(in >> kind)) {
      error = Status::InvalidArgument("unexpected end of tree document");
      return kNoNode;
    }
    auto read_hist = [&](std::vector<uint64_t>& hist) {
      std::string word;
      size_t count = 0;
      if (!(in >> word >> count) || word != "hist") {
        error = Status::InvalidArgument("expected 'hist <n>'");
        return;
      }
      if (count > count_limit) {
        std::ostringstream oss;
        oss << "implausible histogram size " << count
            << " (exceeds document size " << count_limit << ")";
        error = Status::InvalidArgument(oss.str());
        return;
      }
      hist.resize(count);
      for (auto& c : hist) {
        if (!(in >> c)) {
          error = Status::InvalidArgument("truncated histogram");
          return;
        }
      }
    };
    if (kind == "leaf") {
      ClassId label = kNoClass;
      if (!(in >> label)) {
        error = Status::InvalidArgument("leaf without label");
        return kNoNode;
      }
      std::vector<uint64_t> hist;
      read_hist(hist);
      if (!error.ok()) return kNoNode;
      return tree.AddLeaf(label, std::move(hist));
    }
    if (kind == "split") {
      size_t attribute = 0;
      double threshold = 0;
      if (!(in >> attribute >> threshold)) {
        error = Status::InvalidArgument("split without attribute/threshold");
        return kNoNode;
      }
      if (attribute > count_limit) {
        error = Status::InvalidArgument("implausible split attribute index");
        return kNoNode;
      }
      std::vector<uint64_t> hist;
      read_hist(hist);
      if (!error.ok()) return kNoNode;
      const NodeId left = parse_node(depth + 1);
      const NodeId right = parse_node(depth + 1);
      if (!error.ok()) return kNoNode;
      if (left == kNoNode || right == kNoNode) {
        // 'empty' is only legal as the whole document; a split with an
        // empty child would abort AddInternal's id check.
        error = Status::InvalidArgument("split node with an empty child");
        return kNoNode;
      }
      return tree.AddInternal(attribute, threshold, left, right,
                              std::move(hist));
    }
    if (kind == "empty") {
      if (depth != 0) {
        error = Status::InvalidArgument(
            "'empty' is only valid as the root of a tree document");
      }
      return kNoNode;
    }
    error = Status::InvalidArgument("unknown node kind '" + kind + "'");
    return kNoNode;
  };

  const NodeId root = parse_node(0);
  if (!error.ok()) return error;
  if (root != kNoNode) {
    tree.SetRoot(root);
  }
  // Trailing garbage check.
  std::string extra;
  if (in >> extra) {
    return Status::InvalidArgument("trailing content after tree: '" + extra +
                                   "'");
  }
  return tree;
}

}  // namespace

std::string SerializeTree(const DecisionTree& tree) {
  std::ostringstream out;
  out << "popp-tree v2\n";
  if (tree.empty()) {
    out << "empty\n";
    return WithIntegrityFooter(out.str());
  }
  std::function<void(NodeId)> walk = [&](NodeId id) {
    const auto& node = tree.node(id);
    if (node.is_leaf) {
      out << "leaf " << node.label;
      WriteHist(node.class_hist, out);
      return;
    }
    out << "split " << node.attribute << " " << ExactDouble(node.threshold);
    WriteHist(node.class_hist, out);
    walk(node.left);
    walk(node.right);
  };
  walk(tree.root());
  return WithIntegrityFooter(out.str());
}

Result<DecisionTree> ParseTree(const std::string& text) {
  bool had_footer = false;
  auto payload = VerifyIntegrityFooter(text, &had_footer);
  if (!payload.ok()) return payload.status();
  auto tree = ParseTreePayload(std::string(payload.value()), had_footer);
  if (!tree.ok()) {
    return Status::DataLoss(tree.status().message());
  }
  return tree;
}

Status SaveTree(const DecisionTree& tree, const std::string& path) {
  return fault::WriteFileAtomic(path, SerializeTree(tree));
}

Result<DecisionTree> LoadTree(const std::string& path) {
  auto text = fault::ReadFileToString(path);
  if (!text.ok()) return text.status();
  auto tree = ParseTree(text.value());
  if (!tree.ok()) {
    return Status(tree.status().code(),
                  "tree file '" + path + "': " + tree.status().message());
  }
  return tree;
}

}  // namespace popp
