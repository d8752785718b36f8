#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace e2e {

using n2j::Database;
using n2j::Field;
using n2j::Oid;
using n2j::Value;

namespace {

const std::vector<Value>& Rows(const Database& db, const char* extent) {
  return db.FindTable(extent)->rows();
}

const Value& Get(const Value& row, const char* field) {
  const Value* v = row.FindField(field);
  N2J_CHECK(v != nullptr);
  return *v;
}

int64_t IntOf(const Value& row, const char* field) {
  return Get(row, field).int_value();
}

Oid OidOf(const Value& row, const char* field) {
  return Get(row, field).oid_value();
}

const std::string& StrOf(const Value& row, const char* field) {
  return Get(row, field).string_value();
}

/// Oids of a set of unary (pid : oid) tuples — Supplier.parts.
std::vector<Oid> PartRefs(const Value& supplier) {
  std::vector<Oid> out;
  for (const Value& z : Get(supplier, "parts").elements()) {
    out.push_back(OidOf(z, "pid"));
  }
  return out;
}

std::unordered_map<Oid, const Value*> PartsByOid(const Database& db) {
  std::unordered_map<Oid, const Value*> parts;
  for (const Value& p : Rows(db, "PART")) parts[OidOf(p, "pid")] = &p;
  return parts;
}

std::vector<Value> Answer(Shape shape, const Literals& lit,
                          const Database& db) {
  std::vector<Value> out;
  switch (shape) {
    case Shape::kQ1:
    case Shape::kQ6: {
      auto parts = PartsByOid(db);
      for (const Value& s : Rows(db, "SUPPLIER")) {
        std::vector<Value> inner;
        for (Oid ref : PartRefs(s)) {
          auto it = parts.find(ref);
          if (it == parts.end()) continue;
          const Value& p = *it->second;
          if (shape == Shape::kQ6) {
            inner.push_back(p);
          } else if (StrOf(p, "color") == lit.color) {
            inner.push_back(Get(p, "pname"));
          }
        }
        out.push_back(Value::Tuple(
            {Field("sname", Get(s, "sname")),
             Field(shape == Shape::kQ6 ? "partssuppl" : "pnames",
                   Value::Set(std::move(inner)))}));
      }
      break;
    }
    case Shape::kQ2: {
      std::unordered_map<Oid, std::string> sname;
      for (const Value& s : Rows(db, "SUPPLIER")) {
        sname[OidOf(s, "eid")] = StrOf(s, "sname");
      }
      for (const Value& d : Rows(db, "DELIVERY")) {
        auto it = sname.find(OidOf(d, "supplier"));
        if (it != sname.end() && it->second == lit.sname &&
            IntOf(d, "date") > lit.date) {
          out.push_back(d);
        }
      }
      break;
    }
    case Shape::kQ3_1: {
      std::set<Oid> wanted;
      for (const Value& t : Rows(db, "SUPPLIER")) {
        if (StrOf(t, "sname") != lit.sname) continue;
        for (Oid ref : PartRefs(t)) wanted.insert(ref);
      }
      for (const Value& s : Rows(db, "SUPPLIER")) {
        std::vector<Oid> refs = PartRefs(s);
        std::set<Oid> have(refs.begin(), refs.end());
        if (std::includes(have.begin(), have.end(), wanted.begin(),
                          wanted.end())) {
          out.push_back(Get(s, "sname"));
        }
      }
      break;
    }
    case Shape::kQ3_2: {
      auto parts = PartsByOid(db);
      for (const Value& d : Rows(db, "DELIVERY")) {
        for (const Value& x : Get(d, "supply").elements()) {
          auto it = parts.find(OidOf(x, "part"));
          if (it != parts.end() && StrOf(*it->second, "color") == lit.color) {
            out.push_back(d);
            break;
          }
        }
      }
      break;
    }
    case Shape::kQ4:
    case Shape::kQ5: {
      auto parts = PartsByOid(db);
      for (const Value& s : Rows(db, "SUPPLIER")) {
        for (Oid ref : PartRefs(s)) {
          auto it = parts.find(ref);
          bool hit = shape == Shape::kQ4
                         ? it == parts.end()
                         : it != parts.end() &&
                               StrOf(*it->second, "color") == lit.color;
          if (hit) {
            out.push_back(Get(s, shape == Shape::kQ4 ? "eid" : "sname"));
            break;
          }
        }
      }
      break;
    }
    case Shape::kSemijoin: {
      std::unordered_set<int64_t> keys;
      for (const Value& y : Rows(db, "Y")) keys.insert(IntOf(y, "a"));
      for (const Value& x : Rows(db, "X")) {
        int64_t a = IntOf(x, "a");
        if ((lit.key_bound < 0 || a < lit.key_bound) && keys.count(a) > 0) {
          out.push_back(x);
        }
      }
      break;
    }
    case Shape::kChain3: {
      std::unordered_map<int64_t, std::vector<int64_t>> y_by_a, w_by_a;
      for (const Value& y : Rows(db, "Y")) {
        y_by_a[IntOf(y, "a")].push_back(IntOf(y, "e"));
      }
      for (const Value& w : Rows(db, "W")) {
        w_by_a[IntOf(w, "a")].push_back(IntOf(w, "e"));
      }
      for (const Value& x : Rows(db, "X")) {
        int64_t a = IntOf(x, "a");
        for (int64_t ye : y_by_a[a]) {
          for (int64_t we : w_by_a[ye]) {
            out.push_back(Value::Tuple({Field("xa", Value::Int(a)),
                                        Field("we", Value::Int(we))}));
          }
        }
      }
      break;
    }
    case Shape::kFlatten:
      for (const Value& s : Rows(db, "SUPPLIER")) {
        for (const Value& z : Get(s, "parts").elements()) out.push_back(z);
      }
      break;
    case Shape::kSelfjoin: {
      std::map<int64_t, std::vector<Value>> by_price;
      for (const Value& p : Rows(db, "PART")) {
        int64_t price = IntOf(p, "price");
        if (lit.price_bound < 0 || price < lit.price_bound) {
          by_price[price].push_back(Get(p, "pname"));
        }
      }
      for (const auto& [price, names] : by_price) {
        for (const Value& a : names) {
          for (const Value& b : names) {
            out.push_back(Value::Tuple({Field("a", a), Field("b", b)}));
          }
        }
      }
      break;
    }
  }
  return out;
}

std::vector<std::string> RenderElements(const Value& set) {
  std::vector<std::string> out;
  for (const Value& e : set.elements()) out.push_back(Render(e));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string Render(const Value& v) {
  char buf[64];
  switch (v.kind()) {
    case Value::Kind::kNull:
      return "null";
    case Value::Kind::kBool:
      return v.bool_value() ? "true" : "false";
    case Value::Kind::kInt:
      return std::to_string(v.int_value());
    case Value::Kind::kDouble:
      std::snprintf(buf, sizeof(buf), "%.17gd", v.double_value());
      return buf;
    case Value::Kind::kString:
      return "\"" + v.string_value() + "\"";
    case Value::Kind::kOid:
      std::snprintf(buf, sizeof(buf), "#%llx",
                    static_cast<unsigned long long>(v.oid_value()));
      return buf;
    case Value::Kind::kTuple: {
      std::string out = "(";
      for (size_t i = 0; i < v.tuple_size(); ++i) {
        if (i > 0) out += ", ";
        out += v.field_name(i) + "=" + Render(v.field_value(i));
      }
      return out + ")";
    }
    case Value::Kind::kSet: {
      std::string out = "{";
      std::vector<std::string> elems = RenderElements(v);
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) out += ", ";
        out += elems[i];
      }
      return out + "}";
    }
  }
  return "?";
}

Value ExpectedAnswer(Shape shape, const Literals& lit, const Database& db) {
  std::vector<Value> elems = Answer(shape, lit, db);
  // Set semantics, without the engine's canonical ordering: keep the
  // first of each rendering.
  std::unordered_set<std::string> seen;
  std::vector<Value> distinct;
  for (Value& e : elems) {
    if (seen.insert(Render(e)).second) distinct.push_back(std::move(e));
  }
  return Value::Set(std::move(distinct));
}

std::string CompareSets(const Value& got, const Value& want) {
  if (!got.is_set()) return "result is not a set: " + Render(got);
  std::vector<std::string> g = RenderElements(got);
  std::vector<std::string> w = RenderElements(want);
  auto dup = std::adjacent_find(g.begin(), g.end());
  if (dup != g.end()) return "duplicate element " + *dup;
  std::vector<std::string> missing, extra;
  std::set_difference(w.begin(), w.end(), g.begin(), g.end(),
                      std::back_inserter(missing));
  std::set_difference(g.begin(), g.end(), w.begin(), w.end(),
                      std::back_inserter(extra));
  if (missing.empty() && extra.empty()) return "";
  std::string msg = std::to_string(missing.size()) + " missing, " +
                    std::to_string(extra.size()) + " extra of " +
                    std::to_string(w.size()) + " expected";
  if (!missing.empty()) msg += "; first missing " + missing.front();
  if (!extra.empty()) msg += "; first extra " + extra.front();
  return msg;
}

}  // namespace e2e
