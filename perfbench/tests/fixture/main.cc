// Mapper fixture entry point (perfbench/tests/test_tooling.py).
extern "C" int FixtureMachineTick(unsigned v, const char* s);

int main(int argc, char** argv) {
  return FixtureMachineTick(static_cast<unsigned>(argc), argv[0]) > 4096;
}
