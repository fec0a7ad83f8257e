#include "outcome_diff.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

bool masked(const std::vector<std::string>& keys, const std::string& key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

std::string describe(const Json& v) {
  switch (v.type) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return v.boolean ? "true" : "false";
    case Json::Type::kNumber: {
      char buffer[40];
      std::snprintf(buffer, sizeof buffer, "%.17g", v.number);
      return buffer;
    }
    case Json::Type::kString: return '"' + v.text.substr(0, 60) + '"';
    case Json::Type::kArray: return "array[" + std::to_string(v.items.size()) + "]";
    case Json::Type::kObject: return "object";
  }
  return "?";
}

std::string diffValue(const Json& got, const Json& want, const std::string& path,
                      const std::vector<std::string>& mask,
                      const std::vector<std::string>* childMask) {
  if (got.type != want.type) return path + ": " + describe(got) + " != " + describe(want);
  switch (got.type) {
    case Json::Type::kNull: return {};
    case Json::Type::kBool:
      return got.boolean == want.boolean ? std::string()
                                         : path + ": " + describe(got) + " != " + describe(want);
    case Json::Type::kNumber:
      // Exact: outputs print doubles with round-trip precision.
      return got.number == want.number ? std::string()
                                       : path + ": " + describe(got) + " != " + describe(want);
    case Json::Type::kString:
      return got.text == want.text ? std::string()
                                   : path + ": " + describe(got) + " != " + describe(want);
    case Json::Type::kArray: {
      if (got.items.size() != want.items.size()) {
        return path + ": " + describe(got) + " != " + describe(want);
      }
      for (std::size_t i = 0; i < got.items.size(); ++i) {
        const std::vector<std::string> none;
        std::string d = diffValue(got.items[i], want.items[i], path + "[" + std::to_string(i) + "]",
                                  childMask != nullptr ? *childMask : none, nullptr);
        if (!d.empty()) return d;
      }
      return {};
    }
    case Json::Type::kObject: {
      std::vector<const Json::Member*> a;
      std::vector<const Json::Member*> b;
      for (const auto& m : got.members) {
        if (!masked(mask, m.first)) a.push_back(&m);
      }
      for (const auto& m : want.members) {
        if (!masked(mask, m.first)) b.push_back(&m);
      }
      if (a.size() != b.size()) {
        return path + ": " + std::to_string(a.size()) + " keys != " + std::to_string(b.size());
      }
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i]->first != b[i]->first) {
          return path + ": key " + a[i]->first + " != " + b[i]->first;
        }
        std::string d = diffValue(a[i]->second, b[i]->second, path + "." + a[i]->first, {},
                                  childMask);
        if (!d.empty()) return d;
      }
      return {};
    }
  }
  return {};
}

}  // namespace

double num(const Json& object, const std::string& key, double fallback) {
  const Json* v = object.find(key);
  return v != nullptr && v->isNumber() ? v->number : fallback;
}

std::string diffOutcome(const Json& got, const Json& want, const Mask& mask) {
  if (got.type != Json::Type::kObject || want.type != Json::Type::kObject) {
    return "outcome is not an object";
  }
  // Masks apply at the top level and inside "solvers" elements only.
  std::vector<const Json::Member*> a;
  std::vector<const Json::Member*> b;
  for (const auto& m : got.members) {
    if (!masked(mask.topLevel, m.first)) a.push_back(&m);
  }
  for (const auto& m : want.members) {
    if (!masked(mask.topLevel, m.first)) b.push_back(&m);
  }
  if (a.size() != b.size()) {
    return "outcome has " + std::to_string(a.size()) + " compared keys, reference " +
           std::to_string(b.size());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i]->first != b[i]->first) return "key " + a[i]->first + " != " + b[i]->first;
    const bool solvers = a[i]->first == "solvers";
    std::string d = diffValue(a[i]->second, b[i]->second, a[i]->first, {},
                              solvers ? &mask.solver : nullptr);
    if (!d.empty()) return d;
  }
  return {};
}

}  // namespace perfbench
