#include "workloads.h"

#include <algorithm>
#include <sched.h>

#include "adl/schema.h"
#include "common/str_util.h"
#include "storage/datagen.h"

namespace e2e {

using n2j::Database;
using n2j::Field;
using n2j::Rng;
using n2j::Value;

namespace {

// Part colours of the generator (storage/datagen.cc) plus "red".
const char* const kColors[] = {"red",   "blue",  "green", "yellow",
                               "black", "white", "orange"};
constexpr double kRedFraction = 0.2;
constexpr double kMatchFraction = 0.92;
constexpr int kPriceMax = 1000;
constexpr int kPartsPerSupplier = 8;
constexpr int kSuppliesPerDelivery = 5;
constexpr int kYValueDomain = 8;  // y.e in [0, 8): chain3 meets few w

// paper-serial: about 1k parts, and X/Y/W sized so one chain3 (the
// correlated nestjoin, rebuilt per x) takes a few tenths of a second.
// shred-parallel: about 4k parts, read-only, so the columnar reads and
// the morsel pool carry the work; X/Y/W stay small because the shredded
// chain3 grows fast (at |X| = 2048 it took 2.5 s, and the process peaked
// at 1.8 GB resident). append-mix: a few hundred rows, so the per-query
// fixed costs that a bumped Table::version() forces dominate.
const Workload kWorkloads[] = {
    {"paper-serial", n2j::Backend::kNested, /*parallel=*/false,
     /*appends=*/false,
     {/*parts=*/1024, /*suppliers=*/256, /*deliveries=*/512, /*xy_rows=*/512,
      /*w_rows=*/1024}},
    {"shred-parallel", n2j::Backend::kShredded, /*parallel=*/true,
     /*appends=*/false,
     {/*parts=*/4096, /*suppliers=*/1024, /*deliveries=*/2048, /*xy_rows=*/256,
      /*w_rows=*/512}},
    {"append-mix", n2j::Backend::kShredded, /*parallel=*/false,
     /*appends=*/true,
     {/*parts=*/400, /*suppliers=*/100, /*deliveries=*/200, /*xy_rows=*/64,
      /*w_rows=*/128}},
};

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed ^ (stream * 0x9e3779b97f4a7c15ULL));
  return rng.Next();
}

const Value& RandomRow(const Database& db, const char* extent, Rng* rng) {
  const std::vector<Value>& rows = db.FindTable(extent)->rows();
  return rows[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(rows.size()) - 1))];
}

Value RandomColor(Rng* rng) {
  return Value::String(rng->Bernoulli(kRedFraction)
                           ? "red"
                           : kColors[rng->Uniform(1, 6)]);
}

}  // namespace

const char* ShapeTag(Shape s) {
  switch (s) {
    case Shape::kQ1: return "q1";
    case Shape::kQ2: return "q2";
    case Shape::kQ3_1: return "q3_1";
    case Shape::kQ3_2: return "q3_2";
    case Shape::kQ4: return "q4";
    case Shape::kQ5: return "q5";
    case Shape::kQ6: return "q6";
    case Shape::kSemijoin: return "semijoin";
    case Shape::kChain3: return "chain3";
    case Shape::kFlatten: return "flatten";
    case Shape::kSelfjoin: return "selfjoin";
  }
  return "?";
}

std::string QueryText(Shape s, const Literals& lit) {
  const std::string color = "\"" + lit.color + "\"";
  const std::string sname = "\"" + lit.sname + "\"";
  switch (s) {
    case Shape::kQ1:
      return "select (sname = s.sname, pnames = select p.pname from p in "
             "PART where p[pid] in s.parts and p.color = " +
             color + ") from s in SUPPLIER";
    case Shape::kQ2:
      return "select d from d in (select e from e in DELIVERY "
             "where e.supplier.sname = " +
             sname + ") where d.date > " + std::to_string(lit.date);
    case Shape::kQ3_1:
      return "select s.sname from s in SUPPLIER where s.parts supseteq "
             "(select x from t in SUPPLIER, x in t.parts where t.sname = " +
             sname + ")";
    case Shape::kQ3_2:
      return "select d from d in DELIVERY where "
             "exists x in d.supply : x.part.color = " +
             color;
    case Shape::kQ4:
      return "select s.eid from s in SUPPLIER where "
             "exists z in s.parts : not exists p in PART : z.pid = p.pid";
    case Shape::kQ5:
      return "select s.sname from s in SUPPLIER where "
             "exists x in s.parts : exists p in PART : "
             "x.pid = p.pid and p.color = " +
             color;
    case Shape::kQ6:
      return "select (sname = s.sname, partssuppl = select p from p in PART "
             "where p[pid] in s.parts) from s in SUPPLIER";
    case Shape::kSemijoin: {
      std::string bound = lit.key_bound < 0
                              ? ""
                              : "x.a < " + std::to_string(lit.key_bound) +
                                    " and ";
      return "select x from x in X where " + bound +
             "exists y in Y : y.a = x.a";
    }
    case Shape::kChain3:
      return "select (xa = x.a, we = w.e) from x in X, y in Y, w in W "
             "where x.a = y.a and y.e = w.a";
    case Shape::kFlatten:
      return "select z from s in SUPPLIER, z in s.parts";
    case Shape::kSelfjoin: {
      std::string bound =
          lit.price_bound < 0
              ? ""
              : " and x.price < " + std::to_string(lit.price_bound);
      return "select (a = x.pname, b = y.pname) from x in PART, y in PART "
             "where x.price = y.price" +
             bound;
    }
  }
  return "";
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int WorkerThreads(const Workload& w) {
  if (!w.parallel) return 1;
  cpu_set_t set;
  CPU_ZERO(&set);
  int n = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp(n, 1, 4);
}

std::unique_ptr<Database> MakeDatabase(const DataSize& size, uint64_t seed) {
  n2j::SupplierPartConfig sp;
  sp.seed = SubSeed(seed, 1);
  sp.num_parts = size.parts;
  sp.num_suppliers = size.suppliers;
  sp.parts_per_supplier = kPartsPerSupplier;
  sp.red_fraction = kRedFraction;
  sp.match_fraction = kMatchFraction;
  sp.num_deliveries = size.deliveries;
  sp.supplies_per_delivery = kSuppliesPerDelivery;
  sp.price_max = kPriceMax;
  std::unique_ptr<Database> db = n2j::MakeSupplierPartDatabase(sp);

  n2j::XYConfig xy;
  xy.seed = SubSeed(seed, 2);
  xy.x_rows = size.xy_rows;
  xy.y_rows = size.xy_rows;
  xy.key_domain = size.xy_rows;
  xy.value_domain = kYValueDomain;
  N2J_CHECK(n2j::AddRandomXY(db.get(), xy, "X", "Y").ok());

  // AddRandomXY makes tables in pairs; Z stays empty, W is the third
  // range of chain3: W(a, e), a drawn from X/Y's key domain.
  n2j::XYConfig zw;
  zw.seed = SubSeed(seed, 3);
  zw.x_rows = 0;
  zw.y_rows = size.w_rows;
  zw.key_domain = size.xy_rows;
  zw.value_domain = size.xy_rows;
  N2J_CHECK(n2j::AddRandomXY(db.get(), zw, "Z", "W").ok());
  return db;
}

Literals DrawLiterals(const DataSize& size, Rng* rng) {
  Literals lit;
  lit.color = kColors[rng->Uniform(0, 6)];
  lit.sname = n2j::StrFormat(
      "s%lld", static_cast<long long>(rng->Uniform(0, size.suppliers - 1)));
  lit.date = 940000 + rng->Uniform(1, 12) * 100 + 1;
  lit.key_bound = rng->Uniform(1, size.xy_rows);
  lit.price_bound = rng->Uniform(1, kPriceMax);
  return lit;
}

const char* InsertExtent(Shape s) {
  switch (s) {
    case Shape::kQ2:
    case Shape::kQ3_2:
      return "DELIVERY";
    case Shape::kQ3_1:
    case Shape::kQ5:
    case Shape::kFlatten:
      return "SUPPLIER";
    case Shape::kSemijoin:
      return "Y";
    case Shape::kChain3:
      return "W";
    default:
      return "PART";
  }
}

Value MakeRow(const Database& db, const std::string& extent, Rng* rng) {
  const size_t n = db.FindTable(extent)->size();
  const int64_t key_domain =
      static_cast<int64_t>(db.FindTable("X")->size());
  if (extent == "PART") {
    return Value::Tuple({
        Field("pname", Value::String(n2j::StrFormat("part-%zu", n))),
        Field("price", Value::Int(rng->Uniform(1, kPriceMax))),
        Field("color", RandomColor(rng)),
    });
  }
  if (extent == "SUPPLIER") {
    const n2j::ClassDef* part_cls = db.schema().FindClass("Part");
    std::vector<Value> refs;
    for (int j = 0; j < kPartsPerSupplier; ++j) {
      Value pid =
          rng->Bernoulli(kMatchFraction)
              ? *RandomRow(db, "PART", rng).FindField("pid")
              : Value::MakeOidValue(n2j::MakeOid(
                    part_cls->class_id,
                    (uint64_t{1} << 40) +
                        static_cast<uint64_t>(rng->Uniform(0, 1 << 20))));
      refs.push_back(Value::Tuple({Field("pid", std::move(pid))}));
    }
    return Value::Tuple({
        Field("sname", Value::String(n2j::StrFormat("s%zu", n))),
        Field("parts", Value::Set(std::move(refs))),
    });
  }
  if (extent == "DELIVERY") {
    std::vector<Value> supply;
    for (int j = 0; j < kSuppliesPerDelivery; ++j) {
      supply.push_back(Value::Tuple({
          Field("part", *RandomRow(db, "PART", rng).FindField("pid")),
          Field("quantity", Value::Int(rng->Uniform(1, 100))),
      }));
    }
    return Value::Tuple({
        Field("supplier", *RandomRow(db, "SUPPLIER", rng).FindField("eid")),
        Field("supply", Value::Set(std::move(supply))),
        Field("date", Value::Int(940000 + rng->Uniform(1, 12) * 100 +
                                 rng->Uniform(1, 28))),
    });
  }
  const int64_t e_domain = extent == "W" ? key_domain : kYValueDomain;
  return Value::Tuple({
      Field("a", Value::Int(rng->Uniform(0, key_domain - 1))),
      Field("e", Value::Int(rng->Uniform(0, e_domain - 1))),
  });
}

n2j::Status StoreRow(Database* db, const std::string& extent, Value row) {
  if (extent == "PART") return db->NewObject("Part", std::move(row)).status();
  if (extent == "SUPPLIER") {
    return db->NewObject("Supplier", std::move(row)).status();
  }
  if (extent == "DELIVERY") {
    return db->NewObject("Delivery", std::move(row)).status();
  }
  return db->Insert(extent, std::move(row));
}

}  // namespace e2e
