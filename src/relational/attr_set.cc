#include "relational/attr_set.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace cextend {
namespace {

constexpr int64_t kIntMin = std::numeric_limits<int64_t>::min() + 1;
constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max() - 1;

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// a \ b for sorted vectors.
std::vector<std::string> SetDifference(const std::vector<std::string>& a,
                                       const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

std::vector<std::string> SetIntersection(const std::vector<std::string>& a,
                                         const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<std::string> SetUnion(const std::vector<std::string>& a,
                                  const std::vector<std::string>& b) {
  std::vector<std::string> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

}  // namespace

AttrSet AttrSet::FullInt() { return Interval(kIntMin, kIntMax); }

AttrSet AttrSet::Interval(int64_t lo, int64_t hi) {
  AttrSet s;
  s.kind_ = Kind::kInterval;
  s.lo_ = lo;
  s.hi_ = hi;
  return s;
}

AttrSet AttrSet::CatIn(std::vector<std::string> values) {
  AttrSet s;
  s.kind_ = Kind::kCatPositive;
  s.values_ = Sorted(std::move(values));
  return s;
}

AttrSet AttrSet::CatNotIn(std::vector<std::string> values) {
  AttrSet s;
  s.kind_ = Kind::kCatNegative;
  s.values_ = Sorted(std::move(values));
  return s;
}

AttrSet AttrSet::Unknown() {
  AttrSet s;
  s.kind_ = Kind::kUnknown;
  return s;
}

bool AttrSet::IsEmpty() const {
  switch (kind_) {
    case Kind::kInterval:
      return lo_ > hi_;
    case Kind::kCatPositive:
      return values_.empty();
    case Kind::kCatNegative:
      return false;  // complement of a finite set over an open domain
    case Kind::kUnknown:
      return false;
  }
  return false;
}

AttrSet AttrSet::IntersectWith(const AttrSet& other) const {
  if (kind_ == Kind::kUnknown || other.kind_ == Kind::kUnknown)
    return Unknown();
  if (kind_ == Kind::kInterval && other.kind_ == Kind::kInterval) {
    return Interval(std::max(lo_, other.lo_), std::min(hi_, other.hi_));
  }
  if (kind_ != Kind::kInterval && other.kind_ != Kind::kInterval) {
    if (kind_ == Kind::kCatPositive && other.kind_ == Kind::kCatPositive)
      return CatIn(SetIntersection(values_, other.values_));
    if (kind_ == Kind::kCatPositive)  // pos ∩ neg
      return CatIn(SetDifference(values_, other.values_));
    if (other.kind_ == Kind::kCatPositive)  // neg ∩ pos
      return CatIn(SetDifference(other.values_, values_));
    return CatNotIn(SetUnion(values_, other.values_));  // neg ∩ neg
  }
  // Interval vs categorical: type confusion; treat as unknown.
  return Unknown();
}

bool AttrSet::ContainsInt(int64_t v) const {
  switch (kind_) {
    case Kind::kInterval:
      return v >= lo_ && v <= hi_;
    case Kind::kCatPositive:
      return false;
    case Kind::kCatNegative:
      return true;
    case Kind::kUnknown:
      return true;
  }
  return true;
}

bool AttrSet::ContainsString(const std::string& v) const {
  switch (kind_) {
    case Kind::kInterval:
      return false;
    case Kind::kCatPositive:
      return std::binary_search(values_.begin(), values_.end(), v);
    case Kind::kCatNegative:
      return !std::binary_search(values_.begin(), values_.end(), v);
    case Kind::kUnknown:
      return true;
  }
  return true;
}

bool operator==(const AttrSet& a, const AttrSet& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case AttrSet::Kind::kInterval:
      return a.lo_ == b.lo_ && a.hi_ == b.hi_;
    case AttrSet::Kind::kCatPositive:
    case AttrSet::Kind::kCatNegative:
      return a.values_ == b.values_;
    case AttrSet::Kind::kUnknown:
      return true;
  }
  return false;
}

std::string AttrSet::ToString() const {
  switch (kind_) {
    case Kind::kInterval:
      if (IsEmpty()) return "[]";
      return StrFormat("[%lld,%lld]", static_cast<long long>(lo_),
                       static_cast<long long>(hi_));
    case Kind::kCatPositive:
    case Kind::kCatNegative: {
      std::string out = kind_ == Kind::kCatNegative ? "NOT{" : "{";
      for (size_t i = 0; i < values_.size(); ++i) {
        if (i > 0) out += ",";
        out += values_[i];
      }
      return out + "}";
    }
    case Kind::kUnknown:
      return "<unknown>";
  }
  return "<?>";
}

StatusOr<std::map<std::string, AttrSet>> ComputeAttrSets(const Predicate& pred,
                                                         const Schema& schema) {
  std::map<std::string, AttrSet> out;
  for (const Atom& atom : pred.atoms()) {
    auto col = schema.IndexOf(atom.column);
    if (!col.has_value()) {
      return Status::InvalidArgument("attribute not in schema: " + atom.column);
    }
    DataType type = schema.column(*col).type;
    AttrSet atom_set = AttrSet::Unknown();
    if (type == DataType::kInt64) {
      if (atom.op == CompareOp::kIn || atom.op == CompareOp::kNe ||
          !atom.value.is_int()) {
        atom_set = AttrSet::Unknown();
      } else {
        int64_t c = atom.value.AsInt();
        switch (atom.op) {
          case CompareOp::kEq:
            atom_set = AttrSet::Interval(c, c);
            break;
          // `< c` is `<= c - 1` and `> c` is `>= c + 1`; saturating at the
          // int64 limits gives an empty interval (nothing is below INT64_MIN
          // or above INT64_MAX) instead of overflowing.
          case CompareOp::kLt:
            atom_set = AttrSet::Interval(
                std::numeric_limits<int64_t>::min() + 1,
                c == std::numeric_limits<int64_t>::min() ? c : c - 1);
            break;
          case CompareOp::kLe:
            atom_set =
                AttrSet::Interval(std::numeric_limits<int64_t>::min() + 1, c);
            break;
          case CompareOp::kGt:
            atom_set = AttrSet::Interval(
                c == std::numeric_limits<int64_t>::max() ? c : c + 1,
                std::numeric_limits<int64_t>::max() - 1);
            break;
          case CompareOp::kGe:
            atom_set =
                AttrSet::Interval(c, std::numeric_limits<int64_t>::max() - 1);
            break;
          default:
            break;
        }
      }
    } else {  // kString
      switch (atom.op) {
        case CompareOp::kEq:
          if (atom.value.is_string())
            atom_set = AttrSet::CatIn({atom.value.AsString()});
          break;
        case CompareOp::kNe:
          if (atom.value.is_string())
            atom_set = AttrSet::CatNotIn({atom.value.AsString()});
          break;
        case CompareOp::kIn: {
          std::vector<std::string> vals;
          bool ok = true;
          for (const Value& v : atom.values) {
            if (!v.is_string()) {
              ok = false;
              break;
            }
            vals.push_back(v.AsString());
          }
          if (ok) atom_set = AttrSet::CatIn(std::move(vals));
          break;
        }
        default:
          return Status::InvalidArgument(
              "ordering comparison on string attribute " + atom.column);
      }
    }
    auto it = out.find(atom.column);
    if (it == out.end()) {
      out.emplace(atom.column, atom_set);
    } else {
      it->second = it->second.IntersectWith(atom_set);
    }
  }
  return out;
}

}  // namespace cextend
