#include "faults/fault_plan.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>

namespace xmp::faults {

LossModel LossModel::bernoulli(double p, double corrupt) {
  LossModel m;
  m.kind = Kind::Bernoulli;
  m.p_loss = p;
  m.p_corrupt = corrupt;
  return m;
}

LossModel LossModel::gilbert(double p_gb, double p_bg, double loss_bad, double loss_good,
                             double corrupt) {
  LossModel m;
  m.kind = Kind::GilbertElliott;
  m.p_good_bad = p_gb;
  m.p_bad_good = p_bg;
  m.loss_bad = loss_bad;
  m.loss_good = loss_good;
  m.p_corrupt = corrupt;
  return m;
}

const char* FaultEvent::kind_name(Kind k) {
  switch (k) {
    case Kind::LinkDown:
      return "link-down";
    case Kind::LinkUp:
      return "link-up";
    case Kind::SwitchDown:
      return "switch-down";
    case Kind::SwitchUp:
      return "switch-up";
    case Kind::HostDown:
      return "host-down";
    case Kind::HostUp:
      return "host-up";
    case Kind::LossStart:
      return "loss-start";
    case Kind::LossStop:
      return "loss-stop";
    case Kind::EcnBlackholeStart:
      return "blackhole-start";
    case Kind::EcnBlackholeStop:
      return "blackhole-stop";
    case Kind::DegradeStart:
      return "degrade-start";
    case Kind::DegradeStop:
      return "degrade-stop";
    case Kind::DelayStart:
      return "delay-start";
    case Kind::DelayStop:
      return "delay-stop";
    case Kind::ReorderStart:
      return "reorder-start";
    case Kind::ReorderStop:
      return "reorder-stop";
    case Kind::DuplicateStart:
      return "duplicate-start";
    case Kind::DuplicateStop:
      return "duplicate-stop";
    case Kind::EcnOvermarkStart:
      return "overmark-start";
    case Kind::EcnOvermarkStop:
      return "overmark-stop";
  }
  return "?";
}

namespace {

FaultEvent make(FaultEvent::Kind k, sim::Time at, int target) {
  FaultEvent e;
  e.kind = k;
  e.at = at;
  e.target = target;
  return e;
}

}  // namespace

FaultPlan& FaultPlan::link_down(net::LinkId link, sim::Time at) {
  events.push_back(make(FaultEvent::Kind::LinkDown, at, static_cast<int>(link)));
  return *this;
}

FaultPlan& FaultPlan::link_up(net::LinkId link, sim::Time at) {
  events.push_back(make(FaultEvent::Kind::LinkUp, at, static_cast<int>(link)));
  return *this;
}

FaultPlan& FaultPlan::link_flap(net::LinkId link, sim::Time at, sim::Time period, int count) {
  for (int i = 0; i < count; ++i) {
    const sim::Time t0 = at + period * i;
    link_down(link, t0);
    link_up(link, t0 + period / 2);
  }
  return *this;
}

FaultPlan& FaultPlan::switch_down(int sw, sim::Time at) {
  events.push_back(make(FaultEvent::Kind::SwitchDown, at, sw));
  return *this;
}

FaultPlan& FaultPlan::switch_up(int sw, sim::Time at) {
  events.push_back(make(FaultEvent::Kind::SwitchUp, at, sw));
  return *this;
}

FaultPlan& FaultPlan::host_down(int host, sim::Time at) {
  events.push_back(make(FaultEvent::Kind::HostDown, at, host));
  return *this;
}

FaultPlan& FaultPlan::host_up(int host, sim::Time at) {
  events.push_back(make(FaultEvent::Kind::HostUp, at, host));
  return *this;
}

FaultPlan& FaultPlan::loss(net::LinkId link, const LossModel& m, sim::Time at, sim::Time until) {
  FaultEvent e = make(FaultEvent::Kind::LossStart, at, static_cast<int>(link));
  e.loss = m;
  events.push_back(e);
  if (until < sim::Time::infinity()) {
    events.push_back(make(FaultEvent::Kind::LossStop, until, static_cast<int>(link)));
  }
  return *this;
}

FaultPlan& FaultPlan::blackhole(int sw, sim::Time at, sim::Time until) {
  events.push_back(make(FaultEvent::Kind::EcnBlackholeStart, at, sw));
  if (until < sim::Time::infinity()) {
    events.push_back(make(FaultEvent::Kind::EcnBlackholeStop, until, sw));
  }
  return *this;
}

namespace {

/// Shared start/stop expansion for the five gray-failure effects.
void push_gray(std::vector<FaultEvent>& events, FaultEvent::Kind start, FaultEvent::Kind stop,
               net::LinkId link, const GrayModel& m, sim::Time at, sim::Time until) {
  FaultEvent e = make(start, at, static_cast<int>(link));
  e.gray = m;
  events.push_back(e);
  if (until < sim::Time::infinity()) {
    events.push_back(make(stop, until, static_cast<int>(link)));
  }
}

}  // namespace

FaultPlan& FaultPlan::degrade(net::LinkId link, double factor, sim::Time at, sim::Time until) {
  GrayModel m;
  m.factor = factor;
  push_gray(events, FaultEvent::Kind::DegradeStart, FaultEvent::Kind::DegradeStop, link, m, at,
            until);
  return *this;
}

FaultPlan& FaultPlan::delay(net::LinkId link, sim::Time dt, sim::Time jitter, sim::Time at,
                            sim::Time until) {
  GrayModel m;
  m.delay = dt;
  m.jitter = jitter;
  push_gray(events, FaultEvent::Kind::DelayStart, FaultEvent::Kind::DelayStop, link, m, at,
            until);
  return *this;
}

FaultPlan& FaultPlan::reorder(net::LinkId link, double p, sim::Time hold, sim::Time at,
                              sim::Time until) {
  GrayModel m;
  m.p = p;
  m.hold = hold;
  push_gray(events, FaultEvent::Kind::ReorderStart, FaultEvent::Kind::ReorderStop, link, m, at,
            until);
  return *this;
}

FaultPlan& FaultPlan::duplicate(net::LinkId link, double p, sim::Time at, sim::Time until) {
  GrayModel m;
  m.p = p;
  push_gray(events, FaultEvent::Kind::DuplicateStart, FaultEvent::Kind::DuplicateStop, link, m,
            at, until);
  return *this;
}

FaultPlan& FaultPlan::overmark(net::LinkId link, double p, sim::Time at, sim::Time until) {
  GrayModel m;
  m.p = p;
  push_gray(events, FaultEvent::Kind::EcnOvermarkStart, FaultEvent::Kind::EcnOvermarkStop, link,
            m, at, until);
  return *this;
}

namespace {

/// One `verb,k=v,...` statement split into verb + key/value fields.
struct Statement {
  std::string verb;
  std::map<std::string, std::string> kv;
};

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\n\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\n\r");
  return s.substr(b, e - b + 1);
}

bool split_statement(const std::string& text, Statement& st, std::string* error) {
  std::size_t pos = 0;
  bool first = true;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string field =
        trim(comma == std::string::npos ? text.substr(pos) : text.substr(pos, comma - pos));
    if (!field.empty()) {
      if (first) {
        st.verb = field;
        first = false;
      } else {
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos) {
          if (error != nullptr) *error = "expected key=value, got '" + field + "'";
          return false;
        }
        st.kv[trim(field.substr(0, eq))] = trim(field.substr(eq + 1));
      }
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (st.verb.empty()) {
    if (error != nullptr) *error = "empty statement";
    return false;
  }
  return true;
}

bool get_double(const Statement& st, const std::string& key, double& out) {
  const auto it = st.kv.find(key);
  if (it == st.kv.end()) return false;
  out = std::atof(it->second.c_str());
  return true;
}

bool get_int(const Statement& st, const std::string& key, int& out) {
  const auto it = st.kv.find(key);
  if (it == st.kv.end()) return false;
  out = std::atoi(it->second.c_str());
  return true;
}

/// Resolve the statement's target into (down kind, up kind, index).
bool resolve_target(const Statement& st, FaultEvent::Kind& down, FaultEvent::Kind& up,
                    int& target, std::string* error) {
  int idx = 0;
  if (get_int(st, "link", idx)) {
    down = FaultEvent::Kind::LinkDown;
    up = FaultEvent::Kind::LinkUp;
  } else if (get_int(st, "switch", idx)) {
    down = FaultEvent::Kind::SwitchDown;
    up = FaultEvent::Kind::SwitchUp;
  } else if (get_int(st, "host", idx)) {
    down = FaultEvent::Kind::HostDown;
    up = FaultEvent::Kind::HostUp;
  } else {
    if (error != nullptr) *error = "'" + st.verb + "' needs link=/switch=/host=";
    return false;
  }
  target = idx;
  return true;
}

}  // namespace

bool FaultPlan::parse(const std::string& text, FaultPlan& out, std::string* error) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t semi = text.find(';', pos);
    const std::string raw =
        trim(semi == std::string::npos ? text.substr(pos) : text.substr(pos, semi - pos));
    pos = semi == std::string::npos ? text.size() + 1 : semi + 1;
    if (raw.empty()) continue;

    Statement st;
    if (!split_statement(raw, st, error)) return false;

    double at_s = 0.0;
    if (!get_double(st, "at", at_s) || at_s < 0.0) {
      if (error != nullptr) *error = "'" + st.verb + "' needs at=<seconds >= 0>";
      return false;
    }
    const sim::Time at = sim::Time::seconds(at_s);
    double until_s = -1.0;
    const bool has_until = get_double(st, "until", until_s);
    if (has_until && until_s <= at_s) {
      if (error != nullptr) *error = "'" + st.verb + "': until= must be > at=";
      return false;
    }
    const sim::Time until = has_until ? sim::Time::seconds(until_s) : sim::Time::infinity();

    if (st.verb == "down" || st.verb == "up") {
      FaultEvent::Kind down_kind{};
      FaultEvent::Kind up_kind{};
      int target = 0;
      if (!resolve_target(st, down_kind, up_kind, target, error)) return false;
      plan.events.push_back(make(st.verb == "down" ? down_kind : up_kind, at, target));
      if (st.verb == "down" && has_until) {
        plan.events.push_back(make(up_kind, until, target));
      }
    } else if (st.verb == "flap") {
      int link = 0;
      int count = 0;
      double period_s = 0.0;
      if (!get_int(st, "link", link) || !get_double(st, "period", period_s) ||
          !get_int(st, "count", count) || period_s <= 0.0 || count <= 0) {
        if (error != nullptr) *error = "flap needs link=, period=>0, count=>0";
        return false;
      }
      plan.link_flap(static_cast<net::LinkId>(link), at, sim::Time::seconds(period_s), count);
    } else if (st.verb == "loss" || st.verb == "gilbert") {
      int link = 0;
      if (!get_int(st, "link", link)) {
        if (error != nullptr) *error = st.verb + " needs link=";
        return false;
      }
      LossModel m;
      double corrupt = 0.0;
      get_double(st, "corrupt", corrupt);
      if (st.verb == "loss") {
        double p = 0.0;
        get_double(st, "p", p);
        if (p < 0.0 || p > 1.0 || corrupt < 0.0 || corrupt > 1.0 || p + corrupt == 0.0) {
          if (error != nullptr) *error = "loss needs p= and/or corrupt= in (0, 1]";
          return false;
        }
        m = LossModel::bernoulli(p, corrupt);
      } else {
        double pgb = 0.0;
        double pbg = 0.1;
        double pbad = 0.5;
        double pgood = 0.0;
        if (!get_double(st, "pgb", pgb) || pgb <= 0.0) {
          if (error != nullptr) *error = "gilbert needs pgb=>0";
          return false;
        }
        get_double(st, "pbg", pbg);
        get_double(st, "pbad", pbad);
        get_double(st, "pgood", pgood);
        m = LossModel::gilbert(pgb, pbg, pbad, pgood, corrupt);
      }
      plan.loss(static_cast<net::LinkId>(link), m, at, until);
    } else if (st.verb == "blackhole") {
      int sw = 0;
      if (!get_int(st, "switch", sw)) {
        if (error != nullptr) *error = "blackhole needs switch=";
        return false;
      }
      plan.blackhole(sw, at, until);
    } else if (st.verb == "degrade") {
      int link = 0;
      double factor = 0.0;
      if (!get_int(st, "link", link) || !get_double(st, "factor", factor) || factor <= 0.0 ||
          factor >= 1.0) {
        if (error != nullptr) *error = "degrade needs link= and factor= in (0, 1)";
        return false;
      }
      plan.degrade(static_cast<net::LinkId>(link), factor, at, until);
    } else if (st.verb == "delay") {
      int link = 0;
      double dt_s = 0.0;
      double jitter_s = 0.0;
      if (!get_int(st, "link", link) || !get_double(st, "dt", dt_s) || dt_s <= 0.0) {
        if (error != nullptr) *error = "delay needs link= and dt=<seconds > 0>";
        return false;
      }
      get_double(st, "jitter", jitter_s);
      if (jitter_s < 0.0) {
        if (error != nullptr) *error = "delay: jitter= must be >= 0";
        return false;
      }
      plan.delay(static_cast<net::LinkId>(link), sim::Time::seconds(dt_s),
                 sim::Time::seconds(jitter_s), at, until);
    } else if (st.verb == "reorder") {
      int link = 0;
      double p = 0.0;
      double dt_s = 0.0;
      if (!get_int(st, "link", link) || !get_double(st, "p", p) || p <= 0.0 || p > 1.0 ||
          !get_double(st, "dt", dt_s) || dt_s <= 0.0) {
        if (error != nullptr) *error = "reorder needs link=, p= in (0, 1] and dt=<seconds > 0>";
        return false;
      }
      plan.reorder(static_cast<net::LinkId>(link), p, sim::Time::seconds(dt_s), at, until);
    } else if (st.verb == "duplicate" || st.verb == "overmark") {
      int link = 0;
      double p = 0.0;
      if (!get_int(st, "link", link) || !get_double(st, "p", p) || p <= 0.0 || p > 1.0) {
        if (error != nullptr) *error = st.verb + " needs link= and p= in (0, 1]";
        return false;
      }
      if (st.verb == "duplicate") {
        plan.duplicate(static_cast<net::LinkId>(link), p, at, until);
      } else {
        plan.overmark(static_cast<net::LinkId>(link), p, at, until);
      }
    } else {
      if (error != nullptr) *error = "unknown fault verb '" + st.verb + "'";
      return false;
    }
  }
  out = std::move(plan);
  return true;
}

std::string FaultPlan::to_string() const {
  std::string out;
  char buf[160];
  for (const FaultEvent& e : events) {
    if (!out.empty()) out += "; ";
    switch (e.kind) {
      case FaultEvent::Kind::LossStart:
        if (e.loss.kind == LossModel::Kind::Bernoulli) {
          std::snprintf(buf, sizeof buf, "loss,link=%d,at=%g,p=%g,corrupt=%g", e.target,
                        e.at.sec(), e.loss.p_loss, e.loss.p_corrupt);
        } else {
          std::snprintf(buf, sizeof buf,
                        "gilbert,link=%d,at=%g,pgb=%g,pbg=%g,pbad=%g,pgood=%g,corrupt=%g",
                        e.target, e.at.sec(), e.loss.p_good_bad, e.loss.p_bad_good,
                        e.loss.loss_bad, e.loss.loss_good, e.loss.p_corrupt);
        }
        break;
      case FaultEvent::Kind::DegradeStart:
        std::snprintf(buf, sizeof buf, "degrade,link=%d,at=%g,factor=%g", e.target, e.at.sec(),
                      e.gray.factor);
        break;
      case FaultEvent::Kind::DelayStart:
        std::snprintf(buf, sizeof buf, "delay,link=%d,at=%g,dt=%g,jitter=%g", e.target,
                      e.at.sec(), e.gray.delay.sec(), e.gray.jitter.sec());
        break;
      case FaultEvent::Kind::ReorderStart:
        std::snprintf(buf, sizeof buf, "reorder,link=%d,at=%g,p=%g,dt=%g", e.target, e.at.sec(),
                      e.gray.p, e.gray.hold.sec());
        break;
      case FaultEvent::Kind::DuplicateStart:
        std::snprintf(buf, sizeof buf, "duplicate,link=%d,at=%g,p=%g", e.target, e.at.sec(),
                      e.gray.p);
        break;
      case FaultEvent::Kind::EcnOvermarkStart:
        std::snprintf(buf, sizeof buf, "overmark,link=%d,at=%g,p=%g", e.target, e.at.sec(),
                      e.gray.p);
        break;
      default:
        std::snprintf(buf, sizeof buf, "%s,target=%d,at=%g", FaultEvent::kind_name(e.kind),
                      e.target, e.at.sec());
        break;
    }
    out += buf;
  }
  return out;
}

}  // namespace xmp::faults
