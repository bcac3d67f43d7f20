// Receiver-resolution fixture: a call whose receiver is a `T* const`
// local or a one-level member chain (`a.b->F()`, `a[i].b.F()`) must
// still produce its call edge; it resolves through the field type of
// `a`'s class (and a container's element type for a subscript).
#include <map>
#include <vector>

namespace fix {

class Meter {
 public:
  void Tick() { ++ticks_; }

 private:
  int ticks_ = 0;
};

struct Slot {
  Meter meter;
  Meter* shared = nullptr;
};

class Station {
 public:
  void ThroughConstPointer() {
    Meter* const meter = &own_;
    meter->Tick();
  }
  void ThroughPointerMember(Slot& slot) { slot.shared->Tick(); }
  void ThroughSubscriptedMember() { slots_[0].meter.Tick(); }
  void ThroughMappedMember() { by_id_[7].meter.Tick(); }

 private:
  Meter own_;
  std::vector<Slot> slots_;
  std::map<int, Slot> by_id_;
};

}  // namespace fix
