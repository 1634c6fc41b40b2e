"""Fresh interpreter to ready: import the library and its CLI, build the config.

    python3 perfbench/setup_probe.py src|seedref [CONFIG]

``run.py`` times this whole process, interpreter start to exit, as one
set-up sample, alternating the program (``src``) with the frozen seed
library (``seedref``).
"""

import sys

import childenv

risdm = childenv.use_library(sys.argv[1])
if len(sys.argv) > 2:
    risdm.ScenarioConfig.from_file(sys.argv[2])
else:
    risdm.default_config()
