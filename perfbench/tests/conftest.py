import os
import sys

# The benchmark modules import each other as top-level modules (run.py is
# executed as a script), so the tests put the benchmark directory on the path.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
