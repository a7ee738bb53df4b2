# Fails when a production binary or library references a baseline codec.
# Run as: cmake -DNM=<nm> -DFILES=<file;file;...> -P check_link_boundary.cmake
# The comparison codecs live in cliz_baselines, which only benches,
# examples and tests link; clizc, cliz_core and cliz_io must stay clear of
# them so no baseline decoder is reachable from production code.
set(baseline_classes
  Sz3Compressor QozCompressor LorenzoCompressor ZfpLikeCompressor
  SperrLikeCompressor)
foreach(file IN LISTS FILES)
  execute_process(COMMAND "${NM}" -C "${file}"
                  OUTPUT_VARIABLE symbols
                  RESULT_VARIABLE status
                  ERROR_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "nm failed on ${file}")
  endif()
  foreach(cls IN LISTS baseline_classes)
    string(FIND "${symbols}" "${cls}" at)
    if(NOT at EQUAL -1)
      message(FATAL_ERROR "${file} references baseline codec ${cls}")
    endif()
  endforeach()
  message(STATUS "${file}: no baseline codec symbols")
endforeach()
