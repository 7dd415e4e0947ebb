// R1 fixture: Reducer subclasses with and without the full fault-hook set.
// The lint rule is lexical — these fake declarations never compile against
// the real core/reducer.hpp and do not need to.
#pragma once

struct NodeId {};
struct Mass {};

class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void on_link_down(NodeId j) = 0;
  virtual void on_link_up(NodeId j) {}
  virtual Mass local_mass() const = 0;
};

class ForgetfulReducer : public Reducer {  // line 17: R1 (no on_link_down/on_link_up)
 public:
  Mass local_mass() const override;
};

class CompleteReducer final : public Reducer {  // clean: declares all hooks
 public:
  void on_link_down(NodeId j) override;
  void on_link_up(NodeId j) override;
  Mass local_mass() const override;
};

class Unrelated {  // clean: not a Reducer
 public:
  void nothing();
};

// The roster-shaped cases: missing exactly ONE hook must still be flagged —
// a tree reducer that handles recoveries but ignores failures (or vice
// versa) is precisely the half-implemented state R1 exists to catch.
class TreeishReducer : public Reducer {  // R1 (on_link_down missing)
 public:
  void on_link_up(NodeId j) override;
  Mass local_mass() const override;
};

class HybridishReducer : public Reducer {  // R1 (on_link_up missing)
 public:
  void on_link_down(NodeId j) override;
  Mass local_mass() const override;
};
