// Fixture: a program that links wallclock.cpp's object but is in no
// program list. link_audit_fixtures requires the object to stay unlinked.
namespace dtnsim::fake {
double jitter_seed();
}

int main() { return dtnsim::fake::jitter_seed() > 0.0 ? 0 : 1; }
